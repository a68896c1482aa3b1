package policy

import (
	"reflect"
	"testing"

	"repro/internal/mgmt"
)

func TestParseCanonicalNames(t *testing.T) {
	cases := map[string]mgmt.Scheme{
		"basil":    mgmt.BASIL(),
		"BASIL":    mgmt.BASIL(),
		"pesto":    mgmt.Pesto(),
		"lightsrm": mgmt.LightSRM(),
		"bca":      mgmt.BCA(),
		"bca-lazy": mgmt.BCALazy(),
		"bcalazy":  mgmt.BCALazy(),
		"full":     mgmt.Full(),
		" full ":   mgmt.Full(),
	}
	for spec, want := range cases {
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %+v, want %+v", spec, got, want)
		}
	}
	if len(Names()) != 6 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestParseCompositionsMatchConstructors(t *testing.T) {
	// Every canonical scheme is expressible as an explicit composition.
	cases := map[string]mgmt.Scheme{
		"name=BASIL,est=measured,gate=none,exec=copy,tag=off":             mgmt.BASIL(),
		"name=Pesto,gate=proposal":                                        mgmt.Pesto(),
		"name=LightSRM,exec=redirect,gate=copy":                           mgmt.LightSRM(),
		"name=BCA,est=predicted":                                          mgmt.BCA(),
		"name=BCA+Lazy,est=predicted,exec=redirect,gate=copy":             mgmt.BCALazy(),
		"name=BCA+Lazy+Arch,est=predicted,exec=redirect,gate=copy,tag=on": mgmt.Full(),
	}
	for spec, want := range cases {
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %+v, want %+v", spec, got, want)
		}
	}
}

func TestParseDefaultsAndName(t *testing.T) {
	s, err := Parse("est=predicted")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "est=predicted" {
		t.Fatalf("default name = %q, want the spec", s.Name)
	}
	if !s.NeedsModel() {
		t.Fatal("est=predicted should need a model")
	}
	if s.Redirect || s.Gate != mgmt.GateNone {
		t.Fatal("default exec should be an ungated eager copy")
	}
	s, err = Parse("exec=redirect")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Redirect || s.Gate != mgmt.GateNone {
		t.Fatal("exec=redirect without gate=copy should not gate the background copy")
	}
}

func TestParseRejectsInvalidSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"nonsense",
		"est=wrong",
		"gate=sometimes",
		"exec=teleport",
		"tag=maybe",
		"color=red",
		"est",
		"name=",
		"gate=copy,exec=copy", // copy gating needs redirection
		"gate=copy",           // default exec=copy
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) should fail", spec)
		}
	}
}
