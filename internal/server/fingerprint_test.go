package server

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// baseSpec is a fully-spelled reference job for the fingerprint contract.
func fpBaseSpec() Spec {
	return Spec{
		Engine: "real", Variant: "ca",
		N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4, Seed: 7,
	}
}

// The fingerprint must be a pure function of the result-affecting subset:
// perturbing any execution-only or policy-only field leaves it unchanged.
func TestFingerprintIgnoresNonResultFields(t *testing.T) {
	base := fpBaseSpec().Fingerprint()
	perturbed := map[string]Spec{}
	add := func(name string, mod func(*Spec)) {
		s := fpBaseSpec()
		mod(&s)
		perturbed[name] = s
	}
	add("workers", func(s *Spec) { s.Workers = 7 })
	add("sched", func(s *Spec) { s.Sched = "steal" })
	add("coalesce", func(s *Spec) { s.Coalesce = "step" })
	add("steal", func(s *Spec) { s.Steal = "greedy"; s.Ranks = 4 })
	add("transform", func(s *Spec) { s.Transform = "split" })
	add("ranks", func(s *Spec) { s.Ranks = 4 })
	add("priority", func(s *Spec) { s.Priority = "high" })
	add("timeout", func(s *Spec) { s.TimeoutMS = 5000 })
	add("tenant", func(s *Spec) { s.Tenant = "acme" })
	add("cache", func(s *Spec) { s.Cache = "bypass" })
	add("fault", func(s *Spec) { s.Fault = "drop=0.01,seed=3" })
	add("machine", func(s *Spec) { s.Machine = "Stampede2" })
	add("ratio", func(s *Spec) { s.Ratio = 0.4 })
	for name, s := range perturbed {
		if got := s.Fingerprint(); got != base {
			t.Errorf("perturbing non-result field %q changed the fingerprint: %s != %s", name, got, base)
		}
	}
}

// Every result-affecting field must perturb the hash.
func TestFingerprintCoversResultFields(t *testing.T) {
	base := fpBaseSpec().Fingerprint()
	perturbed := map[string]Spec{}
	add := func(name string, mod func(*Spec)) {
		s := fpBaseSpec()
		mod(&s)
		perturbed[name] = s
	}
	add("engine", func(s *Spec) { s.Engine = "sim" })
	add("variant", func(s *Spec) { s.Variant = "base" })
	add("plan", func(s *Spec) { s.Plan = "auto" })
	add("n", func(s *Spec) { s.N = 512 })
	add("tile", func(s *Spec) { s.Tile = 64 })
	add("nodes", func(s *Spec) { s.Nodes = 16 })
	add("steps", func(s *Spec) { s.Steps = 80 })
	add("step_size", func(s *Spec) { s.StepSize = 8 })
	add("wavefront", func(s *Spec) { s.Wavefront = 4; s.Variant = "wf"; s.StepSize = 0 })
	add("seed", func(s *Spec) { s.Seed = 8 })
	seen := map[string]string{"base": base}
	for name, s := range perturbed {
		got := s.Fingerprint()
		if got == base {
			t.Errorf("perturbing result-affecting field %q did not change the fingerprint", name)
		}
		for prev, h := range seen {
			if h == got {
				t.Errorf("fields %q and %q collide: %s", name, prev, got)
			}
		}
		seen[name] = got
	}
}

// Default normalization: the empty spellings hash like their canonical
// forms, so a cache hit does not depend on how the client spelled defaults.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	full := fpBaseSpec()
	full.Seed = 1
	short := Spec{N: 256, Tile: 32, Nodes: 4, Steps: 40, StepSize: 4}
	if f, s := full.Fingerprint(), short.Fingerprint(); f != s {
		t.Fatalf("defaults not normalized: explicit %s != elided %s", f, s)
	}
	one := Spec{N: 256, Tile: 32, Steps: 40}
	oneExplicit := Spec{Engine: "run", Variant: "CA", N: 256, Tile: 32, Nodes: 1, Steps: 40, Seed: 1}
	if a, b := one.Fingerprint(), oneExplicit.Fingerprint(); a != b {
		t.Fatalf("nodes/seed/engine-case normalization broken: %s != %s", a, b)
	}
	// Shape sanity: hex sha256.
	if fp := one.Fingerprint(); len(fp) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(fp))
	} else if _, err := hex.DecodeString(fp); err != nil {
		t.Fatalf("fingerprint is not hex: %v", err)
	}
}

func TestCacheSafe(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want bool
	}{
		{"default real job", func(s *Spec) {}, true},
		{"explicit real", func(s *Spec) { s.Engine = "real" }, true},
		{"plan auto default machine", func(s *Spec) { s.Plan = "auto"; s.Variant = "" }, true},
		{"sim", func(s *Spec) { s.Engine = "sim" }, false},
		{"bypass", func(s *Spec) { s.Cache = "bypass" }, false},
		{"bypass case", func(s *Spec) { s.Cache = "Bypass" }, false},
		{"distributed", func(s *Spec) { s.Ranks = 2 }, false},
		{"fault", func(s *Spec) { s.Fault = "drop=0.01,seed=3" }, false},
		{"fault off", func(s *Spec) { s.Fault = "off" }, true},
		{"auto with machine", func(s *Spec) { s.Plan = "auto"; s.Machine = "Stampede2" }, false},
		{"auto with ratio", func(s *Spec) { s.Plan = "auto"; s.Ratio = 0.4 }, false},
	}
	for _, c := range cases {
		s := fpBaseSpec()
		c.mod(&s)
		if got := s.CacheSafe(); got != c.want {
			t.Errorf("%s: CacheSafe = %v, want %v", c.name, got, c.want)
		}
	}
}

// Validate mirrors admission exactly — including the new tenant and cache
// fields — so the gateway can 400 locally.
func TestSpecValidate(t *testing.T) {
	ok := fpBaseSpec()
	ok.Tenant, ok.Cache = "acme", "bypass"
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := fpBaseSpec()
	bad.Cache = "maybe"
	if err := bad.Validate(); err == nil {
		t.Fatal("bad cache mode accepted")
	}
	neg := fpBaseSpec()
	neg.N = 0
	if err := neg.Validate(); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestFingerprintClassifiesEverySpecField is the cache-soundness guard: every
// Spec field, by JSON name, must be classified exactly as in Fingerprint's
// doc comment — hashed (result-affecting) or excluded (execution- or
// policy-only) — and the classification must hold: perturbing a hashed field
// changes the fingerprint, perturbing an excluded one does not. A new field
// fails here until someone decides whether the cache key must cover it.
func TestFingerprintClassifiesEverySpecField(t *testing.T) {
	hashed := map[string]bool{
		"engine": true, "variant": true, "plan": true, "n": true, "tile": true,
		"nodes": true, "steps": true, "step_size": true, "wavefront": true, "seed": true,
	}
	excluded := map[string]bool{
		// Execution-only.
		"workers": true, "sched": true, "coalesce": true, "steal": true,
		"transform": true, "ranks": true,
		// Policy-only.
		"tenant": true, "cache": true, "priority": true, "timeout_ms": true,
		"fault": true, "machine": true, "ratio": true,
	}
	base := fpBaseSpec()
	typ := reflect.TypeOf(base)
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		seen[name] = true
		if hashed[name] == excluded[name] {
			t.Errorf("Spec.%s (json %q) must be listed as exactly one of hashed or excluded", f.Name, name)
			continue
		}
		s := base
		v := reflect.ValueOf(&s).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "-perturbed")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			t.Errorf("Spec.%s: no perturbation for kind %v", f.Name, v.Kind())
			continue
		}
		if changed := s.Fingerprint() != base.Fingerprint(); changed != hashed[name] {
			t.Errorf("Spec.%s (json %q): listed hashed=%v but perturbing it changed the fingerprint: %v",
				f.Name, name, hashed[name], changed)
		}
	}
	for _, list := range []map[string]bool{hashed, excluded} {
		for name := range list {
			if !seen[name] {
				t.Errorf("classified field %q is not a Spec field", name)
			}
		}
	}
}
