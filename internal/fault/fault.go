// Package fault is a deterministic, rule-based fault injector for the
// experiment scheduler and its I/O paths. The chaos test-suite and the
// -fault CLI flags use it to prove the fault-tolerance invariant: injected
// faults may fail individual experiments, but they never change the
// numeric results of the experiments that survive.
//
// An Injector holds an ordered list of Rules. Code under test calls it at
// named injection points ("job:<label>", "cache.get:<key>",
// "cache.put:<key>", "trace.read", "trace.read.footer",
// "trace.read.block:<i>", "lease.acquire:<key>", "journal.append",
// "sample.estimate:<app>"):
// Do evaluates the error/panic/delay rules for an operation, Data and
// Reader apply short-read truncation to bytes and streams. Every firing
// is logged, so tests can assert that a run's failure manifest lists
// exactly the injected operations.
//
// Determinism: rules fire by occurrence count (Rule.Nth), and the only
// randomness is the seed-derived choice of occurrence for Nth < 0 rules —
// the same seed and rule set always picks the same occurrences. Under a
// parallel scheduler the Nth matching operation can differ between runs
// (scheduling order), which is exactly the point: the Fired log records
// what actually happened, and the invariants must hold regardless. That
// includes "cache.get:<key>": a graph probes the cache entries of each
// dependency level on up to Workers goroutines, so the occurrences are
// counted in the order those probes happen to reach the injector.
package fault

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Action selects what a firing rule does to the operation.
type Action int

const (
	// Error makes the operation return an injected error.
	Error Action = iota
	// Panic makes the operation panic.
	Panic
	// Delay stalls the operation for Rule.Delay, then lets it proceed.
	Delay
	// ShortRead truncates the operation's data to Rule.Keep bytes.
	ShortRead
	// Crash hard-kills the process at the operation — the injected
	// equivalent of kill -9: no deferred functions, no cleanup, no
	// flushes. The kill-9 chaos suite re-execs a real binary with a
	// crash rule and asserts that a restart against the same cache
	// directory recovers completely.
	Crash
)

// String names the action (progress output, firing logs).
func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case ShortRead:
		return "shortread"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Rule describes one injection: which operations it matches and what it
// does to them.
type Rule struct {
	// Pattern is a wildcard pattern over operation names, e.g.
	// "job:run fft*" or "cache.get:*": '*' matches any substring
	// (including '/' — job labels contain cache shapes like
	// "1024K/4-way/64B"), every other byte matches literally.
	Pattern string
	// Action is what happens when the rule fires.
	Action Action
	// Nth selects the matching occurrence that fires: n > 0 fires on the
	// nth match only, 0 fires on every match, and -k fires on one
	// seed-chosen occurrence within the first k matches.
	Nth int
	// Delay is the stall applied by Delay rules.
	Delay time.Duration
	// Keep is the byte count ShortRead rules truncate to.
	Keep int
}

// InjectedError is the error returned by a firing Error rule.
type InjectedError struct {
	// Op is the operation the error was injected at.
	Op string
}

// Error describes the injection.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s", e.Op)
}

// Firing records one rule application.
type Firing struct {
	// Op is the operation the rule fired at.
	Op string `json:"op"`
	// Rule is the index of the firing rule.
	Rule int `json:"rule"`
	// Action is the applied action.
	Action Action `json:"action"`
}

// Injector evaluates rules at injection points. All methods are safe for
// concurrent use and safe on a nil receiver (every call is a no-op), so
// fault hooks cost one nil check when injection is disabled.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules []Rule
	nth   []int // resolved occurrence per rule (Nth < 0 becomes seed-chosen)
	count []int // matching occurrences seen per rule
	fired []Firing
}

// New builds an injector from a seed and rules. The seed only matters for
// rules with Nth < 0, whose firing occurrence it chooses.
func New(seed int64, rules ...Rule) *Injector {
	inj := &Injector{
		seed:  seed,
		rules: append([]Rule(nil), rules...),
		nth:   make([]int, len(rules)),
		count: make([]int, len(rules)),
	}
	for i, ru := range rules {
		n := ru.Nth
		if n < 0 {
			n = 1 + int(splitmix64(uint64(seed)+0x9e3779b97f4a7c15*uint64(i+1))%uint64(-n))
		}
		inj.nth[i] = n
	}
	return inj
}

// match reports whether pattern matches op: '*' matches any substring
// (unlike path.Match it crosses '/', which job labels contain), all
// other bytes match literally. Greedy segment scan: the pieces between
// stars must appear in order, the first anchored at the start and the
// last at the end.
func match(pattern, op string) bool {
	segs := strings.Split(pattern, "*")
	if len(segs) == 1 {
		return pattern == op
	}
	if !strings.HasPrefix(op, segs[0]) {
		return false
	}
	op = op[len(segs[0]):]
	last := segs[len(segs)-1]
	for _, seg := range segs[1 : len(segs)-1] {
		i := strings.Index(op, seg)
		if i < 0 {
			return false
		}
		op = op[i+len(seg):]
	}
	return strings.HasSuffix(op, last)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used
// to derive per-rule occurrences from the seed.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seed returns the injector's seed.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Fired returns a snapshot of every rule application so far.
func (i *Injector) Fired() []Firing {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Firing(nil), i.fired...)
}

// evaluate advances occurrence counters for every rule matching op whose
// action satisfies pred and returns the rules that fire.
func (i *Injector) evaluate(op string, pred func(Action) bool) []Rule {
	var out []Rule
	i.mu.Lock()
	defer i.mu.Unlock()
	for idx := range i.rules {
		ru := i.rules[idx]
		if !pred(ru.Action) {
			continue
		}
		if !match(ru.Pattern, op) {
			continue
		}
		i.count[idx]++
		if i.nth[idx] != 0 && i.count[idx] != i.nth[idx] {
			continue
		}
		i.fired = append(i.fired, Firing{Op: op, Rule: idx, Action: ru.Action})
		out = append(out, ru)
	}
	return out
}

// Do evaluates the Error, Panic, Delay and Crash rules for op: firing
// Delay rules stall (honouring ctx), a firing Crash rule hard-kills the
// process, a firing Panic rule panics, and a firing Error rule returns
// an *InjectedError. Callers place Do where a real fault could strike —
// the start of a job, a cache read, a file open.
func (i *Injector) Do(ctx context.Context, op string) error {
	if i == nil {
		return nil
	}
	fired := i.evaluate(op, func(a Action) bool { return a != ShortRead })
	var delay time.Duration
	doPanic, doCrash, doErr := false, false, false
	for _, ru := range fired {
		switch ru.Action {
		case Delay:
			if ru.Delay > delay {
				delay = ru.Delay
			}
		case Panic:
			doPanic = true
		case Crash:
			doCrash = true
		case Error:
			doErr = true
		}
	}
	if doCrash {
		crashProcess(op)
	}
	if delay > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if doPanic {
		panic(fmt.Sprintf("fault: injected panic at %s (seed %d)", op, i.seed))
	}
	if doErr {
		return &InjectedError{Op: op}
	}
	return nil
}

// shortRead evaluates the ShortRead rules for op, returning the smallest
// byte count to keep and whether any rule fired.
func (i *Injector) shortRead(op string) (keep int, fired bool) {
	rules := i.evaluate(op, func(a Action) bool { return a == ShortRead })
	for _, ru := range rules {
		if !fired || ru.Keep < keep {
			keep, fired = ru.Keep, true
		}
	}
	return keep, fired
}

// Data applies the ShortRead rules for op to in-memory bytes (cache
// entries), truncating to the rule's Keep length when one fires.
func (i *Injector) Data(op string, data []byte) []byte {
	if i == nil {
		return data
	}
	if keep, ok := i.shortRead(op); ok && keep < len(data) {
		return data[:keep]
	}
	return data
}

// Reader wraps r so that a firing ShortRead rule truncates the stream
// after Keep bytes (trace files). The rules are evaluated once, at wrap
// time.
func (i *Injector) Reader(op string, r io.Reader) io.Reader {
	if i == nil {
		return r
	}
	if keep, ok := i.shortRead(op); ok {
		return io.LimitReader(r, int64(keep))
	}
	return r
}

// Parse builds rules from a compact spec — the -fault CLI syntax:
//
//	spec  = rule *(";" rule)
//	rule  = action ["(" arg ")"] ["@" nth] "=" pattern
//
// Actions: "error", "panic", "delay" (arg: duration), "shortread" (arg:
// bytes to keep) and "crash" (hard process kill — see Crash). nth
// follows Rule.Nth.
// Example: "error=job:run fft*;delay(50ms)@2=job:wsweep*".
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, pattern, ok := strings.Cut(part, "=")
		if !ok || pattern == "" {
			return nil, fmt.Errorf("fault: rule %q: want action[(arg)][@nth]=pattern", part)
		}
		ru := Rule{Pattern: pattern}
		action, nthStr, hasNth := strings.Cut(head, "@")
		if hasNth {
			n, err := strconv.Atoi(nthStr)
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad occurrence %q", part, nthStr)
			}
			ru.Nth = n
		}
		var arg string
		if open := strings.Index(action, "("); open >= 0 {
			cl := strings.LastIndex(action, ")")
			if cl < open {
				return nil, fmt.Errorf("fault: rule %q: unbalanced parentheses", part)
			}
			arg = action[open+1 : cl]
			action = action[:open]
		}
		switch action {
		case "error":
			ru.Action = Error
		case "panic":
			ru.Action = Panic
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad delay %q", part, arg)
			}
			ru.Action = Delay
			ru.Delay = d
		case "shortread":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: rule %q: bad byte count %q", part, arg)
			}
			ru.Action = ShortRead
			ru.Keep = n
		case "crash":
			ru.Action = Crash
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown action %q", part, action)
		}
		rules = append(rules, ru)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty rule spec")
	}
	return rules, nil
}
