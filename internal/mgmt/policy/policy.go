// Package policy parses textual management-policy specs into mgmt.Scheme
// values. A spec is either a canonical scheme name (the lineup the paper
// evaluates) or a comma-separated key=value composition setting the
// scheme's policy axes directly:
//
//	name=LABEL           display name (default: the spec itself)
//	est=measured|predicted
//	gate=none|proposal|copy
//	exec=copy|redirect
//	tag=off|on
//
// est selects the Eq. 5 estimate (measured window latency versus
// the contention-stripping model prediction). gate places the Eq. 6–7
// cost/benefit test: nowhere, at migration proposal time (Pesto), or on
// the background copy each epoch (lazy migration — requires
// exec=redirect, since pausing an eager copy would stall writes that
// redirection is supposed to absorb). exec selects the migration
// mechanism, and tag marks migration traffic ClassMigrated so the §5.3
// architectural optimizations engage. Each key sets one mgmt.Scheme
// field: est → Predicted, gate → Gate, exec → Redirect, tag → Tagged.
//
// Examples: "bca-lazy"; "est=predicted,exec=redirect,gate=copy,tag=on"
// (the full proposal); "est=measured,gate=proposal" (Pesto).
package policy

import (
	"fmt"
	"strings"

	"repro/internal/mgmt"
)

// Names lists the canonical scheme names Parse accepts, in evaluation
// order.
func Names() []string {
	return []string{"basil", "pesto", "lightsrm", "bca", "bca-lazy", "full"}
}

// Parse resolves a policy spec — a canonical scheme name or a k=v
// composition — into a Scheme.
func Parse(spec string) (mgmt.Scheme, error) {
	trimmed := strings.TrimSpace(spec)
	switch strings.ToLower(trimmed) {
	case "basil":
		return mgmt.BASIL(), nil
	case "pesto":
		return mgmt.Pesto(), nil
	case "lightsrm":
		return mgmt.LightSRM(), nil
	case "bca":
		return mgmt.BCA(), nil
	case "bca-lazy", "bcalazy":
		return mgmt.BCALazy(), nil
	case "full":
		return mgmt.Full(), nil
	case "":
		return mgmt.Scheme{}, fmt.Errorf("policy: empty spec")
	}
	if !strings.Contains(trimmed, "=") {
		return mgmt.Scheme{}, fmt.Errorf("policy: unknown scheme %q (known: %s; or a k=v composition)",
			trimmed, strings.Join(Names(), "|"))
	}
	return parseComposition(trimmed)
}

// parseComposition assembles a Scheme from a k=v list.
func parseComposition(spec string) (mgmt.Scheme, error) {
	name := spec
	est, gate, exec, tag := "measured", "none", "copy", "off"
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return mgmt.Scheme{}, fmt.Errorf("policy: %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "name":
			if v == "" {
				return mgmt.Scheme{}, fmt.Errorf("policy: empty name")
			}
			name = v
		case "est":
			if v != "measured" && v != "predicted" {
				return mgmt.Scheme{}, fmt.Errorf("policy: est=%q (want measured|predicted)", v)
			}
			est = v
		case "gate":
			if v != "none" && v != "proposal" && v != "copy" {
				return mgmt.Scheme{}, fmt.Errorf("policy: gate=%q (want none|proposal|copy)", v)
			}
			gate = v
		case "exec":
			if v != "copy" && v != "redirect" {
				return mgmt.Scheme{}, fmt.Errorf("policy: exec=%q (want copy|redirect)", v)
			}
			exec = v
		case "tag":
			if v != "off" && v != "on" {
				return mgmt.Scheme{}, fmt.Errorf("policy: tag=%q (want off|on)", v)
			}
			tag = v
		default:
			return mgmt.Scheme{}, fmt.Errorf("policy: unknown key %q (want name|est|gate|exec|tag)", k)
		}
	}
	if gate == "copy" && exec != "redirect" {
		return mgmt.Scheme{}, fmt.Errorf("policy: gate=copy requires exec=redirect (pausing an eager copy would strand writes the redirection path is meant to absorb)")
	}

	s := mgmt.Scheme{Name: name, Predicted: est == "predicted",
		Redirect: exec == "redirect", Tagged: tag == "on"}
	switch gate {
	case "proposal":
		s.Gate = mgmt.GateProposal
	case "copy":
		s.Gate = mgmt.GateCopy
	}
	return s, nil
}
