// Command rapidfeed is the offline half of the online feedback loop: it
// replays the crash-safe feedback event log that rapidserve writes, streams
// the sessions into the incremental click-model estimator, picks the
// best-performing diversifier λ from the bandit evidence in the log, and
// republishes it as a canaried registry version through the serving admin
// API — warm-up, canary and auto-rollback gate every online-learned version
// exactly like a hand-published one.
//
// Modes:
//
//	rapidfeed -log /var/feedback -model-root /srv/models -admin http://127.0.0.1:8080
//	    trainer loop (default): replay new events on an interval, re-estimate,
//	    publish div-fb-* versions and promote them after canary traffic.
//	rapidfeed -log /var/feedback -once
//	    one trainer step, then exit (cron shape).
//	rapidfeed -log /var/feedback -dump
//	    replay the log to stdout as canonical JSON lines ("seq<TAB>event");
//	    byte-identical prefixes across crashes are the smoke-test contract.
//	rapidfeed -log /var/feedback -estimate [-check-batch]
//	    replay, fit the incremental DCM and print the parameters;
//	    -check-batch re-fits with the batch MLE over the same sessions and
//	    exits non-zero if any parameter differs by more than 1e-9 (FP
//	    summation order is the only legitimate difference).
//
// The trainer's estimator retains at most 65 536 clicked-session residuals
// (older ones are folded at their converged posterior), so the loop runs
// indefinitely in bounded memory; -estimate builds its own and never folds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/feedback"
	"repro/internal/serve"
)

func main() {
	var (
		logDir     = flag.String("log", "", "feedback event log directory (written by rapidserve -feedback-log)")
		modelRoot  = flag.String("model-root", "", "registry root to publish online-learned versions into")
		adminURL   = flag.String("admin", "", "base URL of the serving admin API (e.g. http://127.0.0.1:8080)")
		adminToken = flag.String("admin-token", "", "bearer token for the admin API")
		interval   = flag.Duration("interval", 15*time.Second, "trainer re-estimation cadence")
		minEvents  = flag.Int("min-events", 200, "new events required before a re-estimate and republish")
		minPulls   = flag.Int64("min-arm-pulls", 50, "bandit evidence an arm needs before its λ can be published")
		promoteAft = flag.Int64("promote-after", 50, "canary requests a published candidate must serve before promotion")
		promoteTO  = flag.Duration("promote-timeout", 60*time.Second, "how long to watch a canary before leaving it staged")
		once       = flag.Bool("once", false, "run one trainer step and exit")

		dump       = flag.Bool("dump", false, "replay the log as canonical JSON lines to stdout and exit")
		estimate   = flag.Bool("estimate", false, "replay the log, fit the incremental DCM and print parameters")
		checkBatch = flag.Bool("check-batch", false, "with -estimate: verify the incremental fit against the batch MLE")
	)
	flag.Parse()
	var err error
	switch {
	case *dump:
		err = runDump(*logDir, os.Stdout)
	case *estimate:
		err = runEstimate(*logDir, *checkBatch)
	default:
		err = runTrainer(trainerFlags{
			logDir: *logDir, modelRoot: *modelRoot,
			adminURL: *adminURL, adminToken: *adminToken,
			interval: *interval, minEvents: *minEvents,
			minPulls: *minPulls, promoteAfter: *promoteAft, promoteTimeout: *promoteTO,
			once: *once,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidfeed: %v\n", err)
		os.Exit(1)
	}
}

type trainerFlags struct {
	logDir, modelRoot, adminURL, adminToken string
	interval                                time.Duration
	minEvents                               int
	minPulls, promoteAfter                  int64
	promoteTimeout                          time.Duration
	once                                    bool
}

func runTrainer(f trainerFlags) error {
	if f.logDir == "" || f.modelRoot == "" || f.adminURL == "" {
		return fmt.Errorf("trainer mode needs -log, -model-root and -admin")
	}
	tr, err := feedback.NewTrainer(feedback.TrainerConfig{
		LogDir:    f.logDir,
		ModelRoot: f.modelRoot,
		Lifecycle: &serve.AdminClient{BaseURL: f.adminURL, Token: f.adminToken},
		Interval:  f.interval, MinEvents: f.minEvents,
		MinArmPulls: f.minPulls, PromoteAfter: f.promoteAfter, PromoteTimeout: f.promoteTimeout,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.once {
		return tr.Step(ctx)
	}
	return tr.Run(ctx)
}

// runDump replays the log as deterministic "seq<TAB>json" lines. Two dumps
// of the same directory — one before a crash, one after recovery and more
// traffic — must agree byte-for-byte on their common prefix; the smoke test
// holds the loop to that.
func runDump(dir string, w io.Writer) error {
	if dir == "" {
		return fmt.Errorf("-dump needs -log")
	}
	out := json.NewEncoder(w)
	st, err := feedback.Replay(dir, 0, func(seq uint64, ev feedback.Event) error {
		if _, err := fmt.Fprintf(w, "%d\t", seq); err != nil {
			return err
		}
		return out.Encode(&ev)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rapidfeed: dumped %d events (corrupt %d, truncated tail %v, next seq %d)\n",
		st.Events, st.Corrupt, st.Truncated, st.NextSeq)
	return nil
}

// runEstimate replays the log into the incremental estimator. With
// -check-batch it also runs the batch MLE over the identical sessions and
// verifies the two fits agree to the 1e-9 the unit tests pin in-process (FP
// summation order is the only difference; observed ≈ 1e-15).
func runEstimate(dir string, checkBatch bool) error {
	const maxLen, tol = feedback.PositionHorizon, 1e-9
	if dir == "" {
		return fmt.Errorf("-estimate needs -log")
	}
	sessions, st, err := feedback.ReplaySessions(dir)
	if err != nil {
		return err
	}
	inc := clickmodel.NewIncremental(maxLen)
	for _, s := range sessions {
		inc.Add(s)
	}
	est := inc.Estimate(1, nil)
	fmt.Fprintf(os.Stderr, "rapidfeed: %d sessions, %d clicks replayed (corrupt %d, truncated %v)\n",
		inc.Sessions(), inc.Clicks(), st.Corrupt, st.Truncated)
	printEstimate(est)
	if !checkBatch {
		return nil
	}
	batch := clickmodel.Estimate(sessions, 1.0, 1, nil, maxLen)
	var worst float64
	for v, b := range batch.Alpha {
		worst = math.Max(worst, math.Abs(est.Alpha[v]-b))
	}
	for k := range batch.Eps {
		worst = math.Max(worst, math.Abs(est.Eps[k]-batch.Eps[k]))
	}
	if worst > tol {
		return fmt.Errorf("incremental and batch estimates diverge: max |Δ| = %.3e > %.0e", worst, tol)
	}
	fmt.Fprintf(os.Stderr, "rapidfeed: incremental ≡ batch (max |Δ| = %.3e ≤ %.0e)\n", worst, tol)
	return nil
}

func printEstimate(est *clickmodel.Estimated) {
	items := make([]int, 0, len(est.Alpha))
	for v := range est.Alpha {
		items = append(items, v)
	}
	sort.Ints(items)
	show := items
	if len(show) > 10 {
		show = show[:10]
	}
	for _, v := range show {
		fmt.Printf("alpha[%d] = %.6f\n", v, est.Alpha[v])
	}
	if len(items) > len(show) {
		fmt.Printf("… %d more items\n", len(items)-len(show))
	}
	for k, e := range est.Eps {
		if k >= 8 {
			break
		}
		fmt.Printf("eps[%d] = %.6f\n", k, e)
	}
}
