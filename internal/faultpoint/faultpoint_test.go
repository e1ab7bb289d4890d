package faultpoint

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	for _, name := range Catalog() {
		if err := Hit(name); err != nil {
			t.Errorf("disarmed Hit(%s) = %v, want nil", name, err)
		}
	}
}

func TestArmError(t *testing.T) {
	Reset()
	defer Reset()
	Arm(CoreLITBuild, ModeError, 0)
	err := Hit(CoreLITBuild)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Hit = %v, want *Fault", err)
	}
	if f.Site != CoreLITBuild || f.Mode != ModeError {
		t.Errorf("fault = %+v", f)
	}
	// Other sites stay disarmed.
	if err := Hit(CoreGridBuild); err != nil {
		t.Errorf("unarmed site fired: %v", err)
	}
	Disarm(CoreLITBuild)
	if err := Hit(CoreLITBuild); err != nil {
		t.Errorf("disarmed site fired: %v", err)
	}
}

// TestIsFault: a fault is recognised through %w wrapping, and a plain
// error is not mistaken for one.
func TestIsFault(t *testing.T) {
	f := &Fault{Site: CoreLITBuild, Mode: ModeError}
	if !IsFault(fmt.Errorf("core: build: %w", f)) {
		t.Error("wrapped fault not recognised")
	}
	if IsFault(errors.New("core: build failed")) || IsFault(nil) {
		t.Error("plain error recognised as a fault")
	}
}

func TestArmPanic(t *testing.T) {
	Reset()
	defer Reset()
	Arm(CorePrefilter, ModePanic, 0)
	defer func() {
		v := recover()
		f, ok := v.(*Fault)
		if !ok {
			t.Fatalf("panic value = %v, want *Fault", v)
		}
		if f.Site != CorePrefilter {
			t.Errorf("panic site = %q", f.Site)
		}
	}()
	Hit(CorePrefilter)
	t.Fatal("armed panic site did not panic")
}

func TestArmDelay(t *testing.T) {
	Reset()
	defer Reset()
	Arm(CoreFanoutChunk, ModeDelay, 20*time.Millisecond)
	start := time.Now()
	if err := Hit(CoreFanoutChunk); err != nil {
		t.Fatalf("delay Hit = %v, want nil", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay site returned after %v, want >= 20ms", d)
	}
}

func TestArmOnceDisarmsItself(t *testing.T) {
	Reset()
	defer Reset()
	ArmOnce(OverlayPair, ModeError, 0, 2)
	if err := Hit(OverlayPair); err == nil {
		t.Fatal("first hit did not fire")
	}
	if err := Hit(OverlayPair); err == nil {
		t.Fatal("second hit did not fire")
	}
	if err := Hit(OverlayPair); err != nil {
		t.Fatalf("third hit fired after ArmOnce(2): %v", err)
	}
	if Armed(OverlayPair) {
		t.Error("site still armed after its firings ran out")
	}
}

func TestCatalogCoversConstants(t *testing.T) {
	want := map[string]bool{
		CoreLITBuild: true, CoreGridBuild: true, CoreFanoutChunk: true,
		CorePrefilter: true, CoreIntervalInsert: true, OverlayPair: true,
		ServerAccept: true, ServerWrite: true,
		ServerSubscriber: true, ServerShutdown: true,
	}
	got := Catalog()
	if len(got) != len(want) {
		t.Fatalf("Catalog has %d sites, want %d", len(got), len(want))
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("unknown catalog entry %q", name)
		}
	}
}
