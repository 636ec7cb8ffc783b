package engine

import (
	"bytes"
	"math"
	"strconv"
)

// This file is the schema-specialised JSON reader for Request: one pass over
// the body bytes, no reflection. It serves two callers. The HTTP frontend
// decodes with it (DecodeRequestJSON, DecodeBatchJSON); the router skims with
// it (UserKeyJSON), converting only what the user key hashes.
//
// The reader is total over JSON syntax and partial over semantics. It fully
// validates every byte it walks — number grammar, string escapes in skipped
// values, separators, nesting depth — and it declines, returning false and
// never a guess, whatever encoding/json would treat differently from the
// plain reading below:
//
//   - any syntax error, an empty body, a top-level value that is not an
//     object, non-whitespace bytes after the value;
//   - null anywhere a known field or one of its elements is expected, and any
//     other value of the wrong JSON type;
//   - a key that is escaped, holds a non-ASCII byte, or matches a field only
//     case-insensitively (encoding/json folds case, and folds U+017F and
//     U+212A onto s and k); a key seen twice in one object (encoding/json
//     merges into the earlier value);
//   - an id that is not a plain integer literal in range, a float literal
//     strconv.ParseFloat rejects (out of range);
//   - a tenant that is escaped or not ASCII;
//   - an unknown field nested deeper than maxSkipDepth.
//
// On false the caller decodes the same bytes with encoding/json, which stays
// the reference: accepted inputs, rejections and error text are its own, and
// the differential fuzz targets hold the two equal wherever this reader
// answers. Floats are converted by strconv.ParseFloat on the literal's bytes
// — the call encoding/json makes — so decoded requests are bitwise the ones
// it produces and the serving parity suites hold unchanged.
//
// Storage: every float lands in one slab that UserFeatures, Features and
// Cover sub-slice, capacity-clamped so appending to one cannot reach its
// neighbour; items, sequence items and topic lists share slabs the same way.
// Nothing returned aliases body — numbers are converted and Tenant is copied
// — so the caller may recycle the buffer at once. The float slab is presized
// from the body's comma count, but only up to maxSlabPresize: a length the
// body merely implies never sizes an allocation (a body of commas would
// otherwise demand eight times its size before a byte is validated). Past the
// cap the slab grows by append, and sub-slices cut earlier stay valid on the
// array they were cut from — the rule binproto's reader.count follows.

const (
	// maxSlabPresize caps the float slab's initial capacity, in floats.
	maxSlabPresize = 4096
	// Initial capacities of the struct slabs: a typical list is 20–30 items
	// with a few short topic sequences, so one allocation each.
	itemsPresize  = 32
	seqsPresize   = 32
	topicsPresize = 8
	// maxSkipDepth bounds recursion through an unknown field's value.
	maxSkipDepth = 32
	// A float literal without an exponent and at most this many bytes is
	// below 1e300 in magnitude: strconv cannot find it out of range.
	maxPlainFloatLen = 300
)

// DecodeRequestJSON decodes the body of POST /v1/rerank into *req. It
// reports false — leaving *req untouched — when the body is anything it does
// not read exactly as encoding/json would; the caller then decodes the same
// bytes with encoding/json.
func DecodeRequestJSON(body []byte, req *Request) bool {
	d := jsonWalk{b: body}
	d.presize()
	var out Request
	if !d.request(&out) || !d.end() {
		return false
	}
	*req = out
	return true
}

// DecodeBatchJSON decodes the {"requests":[…]} envelope of POST
// /v1/rerank:batch under DecodeRequestJSON's contract; every request shares
// the one set of slabs.
func DecodeBatchJSON(body []byte) ([]Request, bool) {
	d := jsonWalk{b: body}
	d.presize()
	reqs, _, ok := d.envelope()
	if !ok || !d.end() {
		return nil, false
	}
	return reqs, true
}

// UserKeyJSON skims a request body (or, with batch, an envelope) for its
// user key without building the request: the same grammar walk, converting
// only user_features and folding them into the key as it goes. Every other
// known field is type-checked and its numbers grammar-checked — ids parsed
// as in-range integers, floats converted only when they carry an exponent or
// run past maxPlainFloatLen, the only literals that can be out of range — so
// a true answer means encoding/json accepts the body and UserKey
// (BatchUserKey) of what it decodes is the key returned, bit for bit. False
// means decode and hash the slow way.
func UserKeyJSON(body []byte, batch bool) (uint64, bool) {
	d := jsonWalk{b: body, keyOnly: true, key: fnvOffset64}
	if batch {
		_, key, ok := d.envelope()
		return uint64(key), ok && d.end()
	}
	var req Request
	if !d.request(&req) || !d.end() {
		return 0, false
	}
	return uint64(d.key), true
}

// jsonWalk is the cursor of one walk over a body.
type jsonWalk struct {
	b []byte
	i int
	// keyOnly selects the skim: nothing is stored, key accumulates the user
	// key of the request under the cursor.
	keyOnly bool
	key     fnv64a

	floats []float64
	items  []Item
	seqs   []SeqItem
	topics [][]SeqItem
}

// Field names of the wire objects, indexed as the walkers' switches expect.
var (
	requestFields  = []string{"user_features", "items", "topic_sequences", "tenant"}
	itemFields     = []string{"id", "features", "cover", "init_score"}
	seqItemFields  = []string{"features"}
	envelopeFields = []string{"requests"}
)

// presize allocates the float slab: one slot per comma and one more bounds
// the numbers a body can hold, capped so the bound cannot be abused.
func (d *jsonWalk) presize() {
	n := bytes.Count(d.b, []byte{','}) + 1
	d.floats = make([]float64, 0, min(n, maxSlabPresize))
}

// clamp cuts the list appended to slab since start, with no spare capacity.
// An empty list is empty, not nil, as encoding/json decodes [].
func clamp[T any](slab []T, start int) []T {
	if start == len(slab) {
		return []T{}
	}
	return slab[start:len(slab):len(slab)]
}

// peek skips whitespace and returns the byte under the cursor, 0 at the end
// of the body (no JSON token starts with 0).
func (d *jsonWalk) peek() byte {
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		d.i++
	}
	return 0
}

// eat consumes c if it is the next token byte.
func (d *jsonWalk) eat(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// end reports whether only whitespace is left.
func (d *jsonWalk) end() bool { return d.peek() == 0 && d.i == len(d.b) }

// next steps to the next element of an array or member of an object whose
// closing byte is closer: more is false once the closer has been consumed.
// first is true before the first element, which no comma precedes.
func (d *jsonWalk) next(first bool, closer byte) (more, ok bool) {
	switch c := d.peek(); {
	case c == closer:
		d.i++
		return false, true
	case first:
		return true, true
	case c == ',':
		d.i++
		return true, true
	}
	return false, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes one number literal, checked against the JSON grammar
// (strconv alone would also take hex, underscores, "inf", a bare "1.").
// plain means an integer literal: no fraction, no exponent.
func (d *jsonWalk) number() (lit []byte, plain, exp, ok bool) {
	d.peek()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return nil, false, false, false
	}
	plain = true
	if i < len(b) && b[i] == '.' {
		plain = false
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false, false, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		plain, exp = false, true
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false, false, false
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	lit = b[d.i:i]
	d.i = i
	return lit, plain, exp, true
}

// float consumes one number destined for a float64 field. With convert false
// (the skim, on a value the key does not hash) the literal is only checked,
// and converted just when it could be out of range.
func (d *jsonWalk) float(convert bool) (float64, bool) {
	lit, _, exp, ok := d.number()
	if !ok {
		return 0, false
	}
	if !convert && !exp && len(lit) <= maxPlainFloatLen {
		return 0, true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// integer consumes one number destined for an int field: encoding/json
// parses it with ParseInt, so a fraction or an exponent is a type error.
func (d *jsonWalk) integer() (int, bool) {
	lit, plain, _, ok := d.number()
	if !ok || !plain {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// floatList consumes an array of numbers onto the float slab. hashed marks
// user_features, which the skim converts and folds into the key.
func (d *jsonWalk) floatList(hashed bool) ([]float64, bool) {
	if !d.eat('[') {
		return nil, false
	}
	start := len(d.floats)
	for first := true; ; first = false {
		more, ok := d.next(first, ']')
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
		f, ok := d.float(hashed || !d.keyOnly)
		if !ok {
			return nil, false
		}
		if !d.keyOnly {
			d.floats = append(d.floats, f)
		} else if hashed {
			d.key = d.key.word(math.Float64bits(f))
		}
	}
	if d.keyOnly {
		return nil, true
	}
	return clamp(d.floats, start), true
}

// list consumes an array whose elements elem decodes, onto *slab (allocated
// with capacity presize on first use).
func list[T any](d *jsonWalk, slab *[]T, presize int, elem func() (T, bool)) ([]T, bool) {
	if !d.eat('[') {
		return nil, false
	}
	start := len(*slab)
	for first := true; ; first = false {
		more, ok := d.next(first, ']')
		if !ok {
			return nil, false
		}
		if !more {
			break
		}
		v, ok := elem()
		if !ok {
			return nil, false
		}
		if d.keyOnly {
			continue
		}
		if *slab == nil {
			*slab = make([]T, 0, presize)
		}
		*slab = append(*slab, v)
	}
	if d.keyOnly {
		return nil, true
	}
	return clamp(*slab, start), true
}

// plainString consumes a string made of unescaped printable ASCII and returns
// its contents; anything else — whose decoded form would differ from its
// bytes, or whose case folding is not ASCII's — is declined.
func (d *jsonWalk) plainString() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Results of member and fieldIndex beyond a field's index.
const (
	fieldEnd     = -1 // the object's closing brace
	fieldUnknown = -2 // a key naming no field
	fieldFolded  = -3 // a key matching a field only case-insensitively
)

// memberStarted is the bit of a member bitmask that records that the
// object's first member has been passed.
const memberStarted = 1 << 7

// member steps to the next member of the object under the cursor whose key
// is one of names and returns the key's index, the cursor on the value;
// fieldEnd once the closing brace has been consumed. Unknown members are
// validated and skipped. seen is the object's bitmask of fields met so far.
func (d *jsonWalk) member(names []string, seen *uint8) (int, bool) {
	for {
		more, ok := d.next(*seen&memberStarted == 0, '}')
		if !ok || !more {
			return fieldEnd, ok
		}
		*seen |= memberStarted
		key, ok := d.plainString()
		if !ok || !d.eat(':') {
			return 0, false
		}
		f := fieldIndex(names, key)
		switch {
		case f == fieldUnknown:
			if !d.skip(0) {
				return 0, false
			}
			continue
		case f == fieldFolded || *seen&(1<<f) != 0: // or a duplicate
			return 0, false
		}
		*seen |= 1 << f
		return f, true
	}
}

// fieldIndex finds key among names. key is ASCII (plainString), so ASCII
// folding is encoding/json's folding.
func fieldIndex(names []string, key []byte) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return fieldFolded
		}
	}
	return fieldUnknown
}

// skip validates and passes over one value of any type: the value of an
// unknown field, which encoding/json scans and drops without converting.
func (d *jsonWalk) skip(depth int) bool {
	switch c := d.peek(); c {
	case '"':
		return d.skipString()
	case '{', '[':
		if depth == maxSkipDepth {
			return false
		}
		d.i++
		for first := true; ; first = false {
			more, ok := d.next(first, c+2) // ']' and '}' sit two past their openers
			if !ok || !more {
				return ok
			}
			if c == '{' && !(d.skipString() && d.eat(':')) {
				return false
			}
			if !d.skip(depth + 1) {
				return false
			}
		}
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, _, _, ok := d.number()
	return ok
}

func (d *jsonWalk) literal(w string) bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte(w)) {
		return false
	}
	d.i += len(w)
	return true
}

// skipString validates one string of any content: control bytes are
// forbidden, a backslash must start one of JSON's escapes, bytes above ASCII
// pass unexamined (as in encoding/json's scanner).
func (d *jsonWalk) skipString() bool {
	if !d.eat('"') {
		return false
	}
	b := d.b
	for i := d.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			i++
			if i >= len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					i++
					if i >= len(b) || !isHex(b[i]) {
						return false
					}
				}
			default:
				return false
			}
		}
	}
	return false
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f'
}

// request consumes one request object.
func (d *jsonWalk) request(req *Request) bool {
	if !d.eat('{') {
		return false
	}
	var seen uint8
	for {
		f, ok := d.member(requestFields, &seen)
		if !ok {
			return false
		}
		switch f {
		case fieldEnd:
			return true
		case 0:
			req.UserFeatures, ok = d.floatList(true)
		case 1:
			req.Items, ok = list(d, &d.items, itemsPresize, d.item)
		case 2:
			req.TopicSequences, ok = list(d, &d.topics, topicsPresize, d.topic)
		case 3:
			var s []byte
			if s, ok = d.plainString(); ok && !d.keyOnly {
				req.Tenant = string(s)
			}
		}
		if !ok {
			return false
		}
	}
}

// item consumes one candidate object.
func (d *jsonWalk) item() (it Item, ok bool) {
	if !d.eat('{') {
		return it, false
	}
	var seen uint8
	for {
		f, ok := d.member(itemFields, &seen)
		if !ok {
			return it, false
		}
		switch f {
		case fieldEnd:
			return it, true
		case 0:
			it.ID, ok = d.integer()
		case 1:
			it.Features, ok = d.floatList(false)
		case 2:
			it.Cover, ok = d.floatList(false)
		case 3:
			it.InitScore, ok = d.float(!d.keyOnly)
		}
		if !ok {
			return it, false
		}
	}
}

// topic consumes one topic's behaviour sequence.
func (d *jsonWalk) topic() ([]SeqItem, bool) {
	return list(d, &d.seqs, seqsPresize, d.seqItem)
}

func (d *jsonWalk) seqItem() (si SeqItem, ok bool) {
	if !d.eat('{') {
		return si, false
	}
	var seen uint8
	for {
		f, ok := d.member(seqItemFields, &seen)
		if !ok {
			return si, false
		}
		if f == fieldEnd {
			return si, true
		}
		if si.Features, ok = d.floatList(false); !ok {
			return si, false
		}
	}
}

// envelope consumes a batch envelope: the requests when decoding, the fold of
// their user keys when skimming.
func (d *jsonWalk) envelope() (reqs []Request, key fnv64a, ok bool) {
	if !d.eat('{') {
		return nil, 0, false
	}
	key = fnvOffset64
	var seen uint8
	for {
		f, ok := d.member(envelopeFields, &seen)
		if !ok {
			return nil, 0, false
		}
		if f == fieldEnd {
			return reqs, key, true
		}
		var slab []Request
		reqs, ok = list(d, &slab, 1, func() (req Request, ok bool) {
			d.key = fnvOffset64
			ok = d.request(&req)
			key = key.word(uint64(d.key))
			return req, ok
		})
		if !ok {
			return nil, 0, false
		}
	}
}
