package fault

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if err := inj.Do(context.Background(), "job:x"); err != nil {
		t.Fatal(err)
	}
	if got := inj.Data("cache.get:x", []byte("abc")); string(got) != "abc" {
		t.Fatalf("nil Data altered bytes: %q", got)
	}
	r := strings.NewReader("abc")
	if inj.Reader("trace.read", r) != io.Reader(r) {
		t.Fatal("nil Reader wrapped the stream")
	}
	if inj.Fired() != nil {
		t.Fatal("nil Fired not empty")
	}
}

func TestErrorRuleNthOccurrence(t *testing.T) {
	inj := New(1, Rule{Pattern: "job:run *", Action: Error, Nth: 2})
	ctx := context.Background()
	if err := inj.Do(ctx, "job:run fft"); err != nil {
		t.Fatalf("first occurrence fired: %v", err)
	}
	err := inj.Do(ctx, "job:run lu")
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("second occurrence did not fire: %v", err)
	}
	if ie.Op != "job:run lu" {
		t.Fatalf("InjectedError.Op = %q", ie.Op)
	}
	if err := inj.Do(ctx, "job:run fft"); err != nil {
		t.Fatalf("third occurrence fired: %v", err)
	}
	if err := inj.Do(ctx, "job:record fft"); err != nil {
		t.Fatalf("non-matching op fired: %v", err)
	}
	fired := inj.Fired()
	if len(fired) != 1 || fired[0].Op != "job:run lu" || fired[0].Action != Error {
		t.Fatalf("fired log = %+v", fired)
	}
}

func TestEveryOccurrence(t *testing.T) {
	inj := New(1, Rule{Pattern: "job:x", Action: Error})
	for i := 0; i < 3; i++ {
		err := inj.Do(context.Background(), "job:x")
		var ie *InjectedError
		if !errors.As(err, &ie) {
			t.Fatalf("occurrence %d: %v", i, err)
		}
	}
	if len(inj.Fired()) != 3 {
		t.Fatalf("fired %d times, want 3", len(inj.Fired()))
	}
}

func TestPanicRule(t *testing.T) {
	inj := New(7, Rule{Pattern: "job:boom", Action: Panic})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "job:boom") {
			t.Fatalf("panic value %v", p)
		}
	}()
	inj.Do(context.Background(), "job:boom")
}

func TestDelayRuleHonoursContext(t *testing.T) {
	inj := New(1, Rule{Pattern: "job:slow", Action: Delay, Delay: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Do(ctx, "job:slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored context")
	}
}

func TestShortReadDataAndReader(t *testing.T) {
	inj := New(1,
		Rule{Pattern: "cache.get:*", Action: ShortRead, Keep: 2},
		Rule{Pattern: "trace.read", Action: ShortRead, Keep: 3})
	if got := inj.Data("cache.get:abcd", []byte("hello")); string(got) != "he" {
		t.Fatalf("Data = %q", got)
	}
	// Error/panic evaluation must not consume ShortRead occurrences.
	if err := inj.Do(context.Background(), "cache.get:abcd"); err != nil {
		t.Fatal(err)
	}
	r := inj.Reader("trace.read", strings.NewReader("hello"))
	b, _ := io.ReadAll(r)
	if string(b) != "hel" {
		t.Fatalf("Reader = %q", b)
	}
}

func TestSeededOccurrenceIsDeterministic(t *testing.T) {
	pick := func(seed int64) []int {
		inj := New(seed,
			Rule{Pattern: "op", Action: Error, Nth: -5},
			Rule{Pattern: "op2", Action: Error, Nth: -5})
		return append([]int(nil), inj.nth...)
	}
	a, b := pick(42), pick(42)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same seed chose different occurrences: %v vs %v", a, b)
	}
	for _, n := range a {
		if n < 1 || n > 5 {
			t.Fatalf("occurrence %d out of range [1,5]", n)
		}
	}
	// Different seeds eventually choose different occurrences.
	diverged := false
	for seed := int64(0); seed < 32 && !diverged; seed++ {
		c := pick(seed)
		diverged = c[0] != a[0] || c[1] != a[1]
	}
	if !diverged {
		t.Fatal("32 seeds all chose identical occurrences")
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("error=job:run fft*; error@2=cache.get:*;panic=job:boom;delay(50ms)@-4=job:slow*;shortread(16)=trace.read")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Pattern: "job:run fft*", Action: Error},
		{Pattern: "cache.get:*", Action: Error, Nth: 2},
		{Pattern: "job:boom", Action: Panic},
		{Pattern: "job:slow*", Action: Delay, Delay: 50 * time.Millisecond, Nth: -4},
		{Pattern: "trace.read", Action: ShortRead, Keep: 16},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}

	for _, bad := range []string{"", "error", "bogus=x", "delay=x", "delay(zzz)=x", "shortread(-1)=x", "error@x=y", "terror@2=cache.get:*"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestReaderPassThroughWithoutRule(t *testing.T) {
	inj := New(1, Rule{Pattern: "other", Action: ShortRead, Keep: 1})
	var buf bytes.Buffer
	buf.WriteString("payload")
	b, _ := io.ReadAll(inj.Reader("trace.read", &buf))
	if string(b) != "payload" {
		t.Fatalf("non-matching Reader truncated: %q", b)
	}
}

// TestMatchCrossesSlashes: '*' must match any substring, including the
// '/' bytes in run-job labels like "cache=1024K/4-way/64B" (path.Match
// semantics would silently never fire on those).
func TestMatchCrossesSlashes(t *testing.T) {
	cases := []struct {
		pattern, op string
		want        bool
	}{
		{"job:run *", "job:run fft p=4 cache=1024K/4-way/64B model=0", true},
		{"job:*", "job:replay trace 16K/4-way/64B", true},
		{"job:*4-way*", "job:replay trace 16K/4-way/64B", true},
		{"job:run *", "job:record fft p=4", false},
		{"job:run fft*model=0", "job:run fft p=4 cache=1024K/4-way/64B model=0", true},
		{"job:run fft*model=1", "job:run fft p=4 cache=1024K/4-way/64B model=0", false},
		{"*", "anything at all", true},
		{"job:x", "job:x", true},
		{"job:x", "job:xy", false},
	}
	for _, c := range cases {
		inj := New(1, Rule{Pattern: c.pattern, Action: Error})
		err := inj.Do(context.Background(), c.op)
		if got := err != nil; got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pattern, c.op, got, c.want)
		}
	}
}
