package engine

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rerank"
	"repro/internal/topics"
)

// readFloat converts one whole literal the way the reader converts a float
// field.
func readFloat(lit []byte) (float64, bool) {
	d := jsonWalk{b: lit}
	f, ok := d.float(true)
	return f, ok && d.i == len(lit)
}

// fastFloat converts one whole literal without strconv, or reports false.
func fastFloat(lit []byte) (float64, bool) {
	d := jsonWalk{b: lit}
	n, ok := d.number()
	if !ok || d.i != len(lit) || n.trunc {
		return 0, false
	}
	return eiselLemire(n.man, n.exp10, n.neg)
}

// checkFloat holds the reader to strconv.ParseFloat on one JSON number
// literal: the same bits and the same verdict. It reports whether the
// literal converted without strconv.
func checkFloat(tb testing.TB, lit []byte) (fast bool) {
	got, ok := readFloat(lit)
	want, err := strconv.ParseFloat(string(lit), 64)
	if ok != (err == nil) || math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("%s: reader %v (%#x, ok %v), strconv %v (%#x, %v)",
			lit, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
	}
	f, fast := fastFloat(lit)
	if fast && math.Float64bits(f) != math.Float64bits(want) {
		tb.Fatalf("%s: fast path %#x, strconv %#x", lit, math.Float64bits(f), math.Float64bits(want))
	}
	return fast
}

// floatCases are the hand-picked literals the sweep starts from and the fuzz
// target is seeded with.
var floatCases = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "-0e-5", "0.000e999", "0.000123", "-0.0000000000000000000000000000001",
	"1", "-1", "1.5", "0.1", "0.3", "123456789", "1e23", "8.41e21", "5e-324", "4.9e-324",
	"2.4703282292062327e-324", "2.4703282292062328e-324", // either side of half the smallest subnormal
	"7.1e-322", "1e-310", "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"4.4501477170144023e-308", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e308", "1e309", "-1e309", "1e-400", "1e400", "1e-99999", "1e99999",
	"9007199254740993", "9007199254740992.5", "1.00000000000000011102230246251565404236316680908203125",
	"123456789012345678901234567890", "0.1234567890123456789012345", "1234567890123456789e-349",
	"1e-348", "1e347", "1e-349", "1e348", "99999999999999999999e-20", "10000000000000000000000e-22",
}

// pow10u[k] is 10^k.
var pow10u = func() (p [20]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 10
	}
	return p
}()

// floatSweep feeds check a deterministic sweep of JSON number literals: every
// decimal exponent of the converter's table and a little past it with 1–19
// digit mantissas; random doubles in the g, e and f forms; the subnormal band
// binade by binade; midpoints of adjacent doubles written with 17–19 digits;
// mantissas past 19 digits. reps scales every part.
func floatSweep(reps int, check func(lit []byte)) {
	rng := rand.New(rand.NewSource(35))
	var b []byte
	sign := func() {
		b = b[:0]
		if rng.Intn(2) == 0 {
			b = append(b, '-')
		}
	}
	for _, c := range floatCases {
		check([]byte(c))
	}

	// man × 10^e, written as an integer with an exponent and as d.ddd;
	// fewer where the value is subnormal or zero, whose strconv reference is
	// its slow path (the band has its own part below).
	for e := pow10Min - 3; e <= pow10Max+3; e++ {
		for k := 1; k <= maxMantDigits; k++ {
			n := 12 * reps
			if e+k <= -307 {
				n = reps
			}
			for r := 0; r < n; r++ {
				man := pow10u[k-1] + rng.Uint64()%(9*pow10u[k-1])
				sign()
				b = strconv.AppendUint(b, man, 10)
				b = append(b, 'e')
				b = strconv.AppendInt(b, int64(e), 10)
				check(b)
				sign()
				digits := strconv.AppendUint(nil, man, 10)
				b = append(b, digits[0])
				if k > 1 {
					b = append(append(b, '.'), digits[1:]...)
				}
				b = append(b, 'E')
				if e+k-1 >= 0 {
					b = append(b, '+')
				}
				b = strconv.AppendInt(b, int64(e+k-1), 10)
				check(b)
			}
		}
	}

	// Random doubles as encoders write them: shortest g and e, f where
	// encoding/json uses it, and e at 1–19 significant digits.
	for r := 0; r < 70000*reps; r++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.AppendFloat(b[:0], f, 'g', -1, 64))
		check(strconv.AppendFloat(b[:0], f, 'e', -1, 64))
		check(strconv.AppendFloat(b[:0], f, 'e', rng.Intn(maxMantDigits), 64))
		if a := math.Abs(f); a == 0 || 1e-6 <= a && a < 1e21 {
			check(strconv.AppendFloat(b[:0], f, 'f', -1, 64))
		}
	}

	// The subnormal band, every binade, and its edges.
	subnormal := func(m uint64) {
		f := math.Float64frombits(m)
		check(strconv.AppendFloat(b[:0], f, 'g', -1, 64))
		check(strconv.AppendFloat(b[:0], f, 'e', 15+rng.Intn(4), 64))
	}
	for j := 0; j < 52; j++ {
		for r := 0; r < 16*reps; r++ {
			subnormal(1<<j | rng.Uint64()&(1<<j-1))
		}
	}
	for _, m := range []uint64{1, 2, 3, 1<<52 - 2, 1<<52 - 1, 1 << 52, 1<<52 + 1} {
		subnormal(m)
	}

	// Midpoints of adjacent doubles — the literals whose rounding is
	// closest to open — at 17, 18 and 19 significant digits.
	mid, half := new(big.Float).SetPrec(64), new(big.Float)
	for r := 0; r < 1500*reps; r++ {
		u := rng.Uint64() &^ (1 << 63)
		if r%8 == 0 {
			u &= 1<<52 - 1 // a subnormal and its successor
		}
		f := math.Float64frombits(u)
		if math.IsNaN(f) || math.IsInf(f, 0) || math.IsInf(math.Nextafter(f, math.Inf(1)), 0) {
			continue
		}
		mid.SetFloat64(f)
		half.SetFloat64(math.Nextafter(f, math.Inf(1)) - f)
		mid.Add(mid, half.SetMantExp(half, -1))
		for p := 17; p <= maxMantDigits; p++ {
			sign()
			check(mid.Append(b, 'e', p-1))
		}
	}

	// Past 19 digits: the fallback.
	for r := 0; r < 300*reps; r++ {
		sign()
		b = append(b, "0."...)
		for k := 20 + rng.Intn(30); k > 0; k-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(rng.Intn(700)-350), 10)
		check(b)
	}
	check([]byte("0." + strings.Repeat("3", 800)))
	check([]byte(strings.Repeat("9", 400)))
	// An exponent past 10000 is read no further, as strconv reads it:
	// both take this literal for 1e-321.
	check([]byte("0." + strings.Repeat("0", 10320) + "1e100000"))
}

// TestParseFloatAgainstStrconv holds the reader's float conversion to
// strconv.ParseFloat, bit for bit and verdict for verdict, over at least
// three million literals (a reduced sweep under -short).
func TestParseFloatAgainstStrconv(t *testing.T) {
	reps := 6
	if testing.Short() {
		reps = 1
	}
	var n, fast int
	floatSweep(reps, func(lit []byte) {
		n++
		if checkFloat(t, lit) {
			fast++
		}
	})
	t.Logf("%d literals, %d (%.1f %%) without strconv", n, fast, 100*float64(fast)/float64(n))
	if !testing.Short() && n < 3_000_000 {
		t.Fatalf("the sweep covered %d literals, want at least 3 M", n)
	}
}

// TestPow10Table pins rows of the generated table to strconv's
// detailedPowersOfTen, from which they were checked to be identical.
func TestPow10Table(t *testing.T) {
	for e, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-324: {0x52064CAC828675B9, 0xCF42894A5DCE35EA},
		-308: {0x6FB92487298E33BD, 0xE61ACF033D1A45DF},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x0000000000000000, 0x8000000000000000},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		55:   {0xFFF4B4E3F741CF6D, 0xD0CF4B50CFE20765},
		56:   {0xBFF8F10E7A8921A4, 0x82818F1281ED449F},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[e-pow10Min]; got != want {
			t.Errorf("1e%d: %#x, strconv %#x", e, got, want)
		}
	}
}

// FuzzParseFloat is the differential fuzz of the reader's number scan and
// conversion: a literal the scan takes whole is one JSON accepts, and it
// converts to strconv.ParseFloat's bits with strconv's verdict.
func FuzzParseFloat(f *testing.F) {
	for _, c := range floatCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		d := jsonWalk{b: []byte(lit)}
		_, ok := d.number()
		whole := ok && d.i == len(lit)
		if lit != "" && (lit[0] == '-' || isDigit(lit[0])) && isDigit(lit[len(lit)-1]) {
			if json.Valid([]byte(lit)) != whole {
				t.Fatalf("%q: scan takes it whole = %v, JSON grammar says %v", lit, whole, !whole)
			}
		}
		if whole {
			checkFloat(t, []byte(lit))
		}
	})
}

// datasetRequests builds n requests the way the benchmark's pool does: a
// Taobao-like dataset at the scale of its 256-user pool, seeded as its first
// run; each re-rank pool cut to 20 items with covers from d.Cover, the
// user's history split by topic and cut to the model's D. The GMM covers
// hold underflowed responsibilities such as 7.1e-322: subnormal literals,
// which strconv converts only on its slow path.
func datasetRequests(tb testing.TB, n int) []Request {
	tb.Helper()
	cfg := dataset.TaobaoLike(61)
	d, err := dataset.Generate(cfg.Scaled(1.05 * 256 / float64(cfg.RerankRequests)))
	if err != nil {
		tb.Fatal(err)
	}
	D := core.DefaultConfig(cfg.UserDim, cfg.ItemDim, cfg.Topics, 7).D
	rng := rand.New(rand.NewSource(2))
	reqs := make([]Request, n)
	for k := range reqs {
		dp := d.RerankPools[k]
		req := &reqs[k]
		req.UserFeatures = d.UserFeatures(dp.User)
		for i, v := range dp.Candidates[:20] {
			req.Items = append(req.Items, Item{ID: k*32 + i, Features: d.ItemFeatures(v), Cover: d.Cover(v), InitScore: d.Relevance(dp.User, v)})
		}
		for _, seq := range topics.SplitByTopic(d.Users[dp.User].History, d.Cover, cfg.Topics, rerank.TopicSeqCap, rng) {
			seq = seq[max(0, len(seq)-D):]
			items := make([]SeqItem, len(seq))
			for t, v := range seq {
				items[t].Features = d.ItemFeatures(v)
			}
			req.TopicSequences = append(req.TopicSequences, items)
		}
	}
	return reqs
}

var numberLiteral = regexp.MustCompile(`-?[0-9][0-9.eE+-]*`)

// TestDatasetBodiesNeedNoStrconv: every number in the bodies the benchmark
// sends — subnormal covers included — converts without strconv, and the
// bodies decode as encoding/json decodes them.
func TestDatasetBodiesNeedNoStrconv(t *testing.T) {
	var lits, subnormal int
	for _, req := range datasetRequests(t, 40) {
		body := mustJSON(t, &req)
		if ok, _ := checkDecode(t, body); !ok {
			t.Fatalf("decoder declined a dataset body: %s", body)
		}
		for _, lit := range numberLiteral.FindAll(body, -1) {
			lits++
			if !checkFloat(t, lit) {
				t.Errorf("%s took strconv", lit)
			}
			if f, _ := readFloat(lit); f != 0 && math.Abs(f) < 0x1p-1022 {
				subnormal++
			}
		}
	}
	t.Logf("%d literals, %d subnormal", lits, subnormal)
	if subnormal == 0 {
		t.Fatal("no subnormal literal: the bodies no longer test what they are here for")
	}
}
