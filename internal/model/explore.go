package model

import "fmt"

// node is one BFS frontier entry: the script that reaches a state, plus the
// operating mode there (which prunes no-op mode-switch successors).
type node struct {
	script *Script
	mode   int
}

// Explore enumerates every quiescent state reachable within Depth windows,
// checking all protocol invariants on every replay. It returns the first
// violation (with a minimized counterexample) or the exhaustive state count.
//
// The search is deterministic: the window menu, the BFS order, and the
// canonical encoding are all fixed functions of the Config, so two runs on
// the same configuration report identical States/Runs counts — a drift in
// either is itself a regression signal.
func (c *Checker) Explore() (*Result, error) {
	res := &Result{}
	violation := func(s *Script, kind, msg string) *Result {
		res.Violation = &Violation{Kind: kind, Err: msg, Script: s.clone()}
		res.Violation.Minimized = c.minimize(s, kind, &res.Runs)
		return res
	}

	root := c.EmptyScript()
	rr, err := c.replay(root, nil)
	if err != nil {
		return nil, err
	}
	res.Runs++
	if rr.kind != "" {
		return violation(root, rr.kind, rr.msg), nil
	}
	visited := map[canonKey]bool{c.canonicalKey(rr.sys, rr.boundary): true}
	res.States = 1
	frontier := []node{{script: root, mode: rr.sys.Mode()}}

	for depth := 0; depth < c.cfg.Depth && len(frontier) > 0; depth++ {
		var next []node
		for _, nd := range frontier {
			for _, w := range c.windows(nd.mode) {
				s2 := nd.script.extend(w)
				rr, err := c.replay(s2, nil)
				if err != nil {
					return nil, err
				}
				res.Runs++
				if rr.kind != "" {
					return violation(s2, rr.kind, rr.msg), nil
				}
				key := c.canonicalKey(rr.sys, rr.boundary)
				if visited[key] {
					continue
				}
				visited[key] = true
				res.States++
				next = append(next, node{script: s2, mode: rr.sys.Mode()})
			}
		}
		res.Depth = depth + 1
		frontier = next
		if c.cfg.Progress != nil {
			c.cfg.Progress("model: depth %d done: %d states, %d runs, frontier %d", res.Depth, res.States, res.Runs, len(frontier))
		}
	}
	return res, nil
}

// windows builds the successor menu at an operating mode: every single
// command at every post-quiescence gap, plus (with Pairs) every ordered
// two-command race at every gap × offset. Same-core access pairs are
// excluded (the second would queue in the MSHR and slide off the static
// schedule); switch-switch pairs are redundant with two single-switch
// windows plus a switch racing an access.
func (c *Checker) windows(mode int) []Window {
	if ws, ok := c.winCache[mode]; ok {
		return ws
	}
	var actions []Command
	for core := 0; core < c.sys.N(); core++ {
		for line := range c.lines {
			actions = append(actions,
				Command{Core: core, Line: line},
				Command{Core: core, Line: line, Write: true})
		}
	}
	for m := 1; m <= c.sys.Levels; m++ {
		if m != mode {
			actions = append(actions, Command{Switch: true, Mode: m})
		}
	}
	var ws []Window
	for _, a := range actions {
		for _, g := range c.cfg.PostGaps {
			ws = append(ws, Window{Gap: g, Cmds: []Command{a}})
		}
	}
	if c.cfg.Pairs {
		for _, a1 := range actions {
			for _, a2 := range actions {
				if a1.Switch && a2.Switch {
					continue
				}
				if !a1.Switch && !a2.Switch && a1.Core == a2.Core {
					continue
				}
				for _, g := range c.cfg.PostGaps {
					for _, d := range c.cfg.RaceOffsets {
						b := a2
						b.Offset = d
						ws = append(ws, Window{Gap: g, Cmds: []Command{a1, b}})
					}
				}
			}
		}
	}
	c.winCache[mode] = ws
	return ws
}

// minimize greedily shrinks a violating script while preserving the
// violation kind, verifying every candidate by full replay: drop whole
// windows, reduce races to their single commands, then walk gaps and offsets
// down the menu. Runs to a fixpoint under a replay budget; each accepted
// candidate is itself a verified counterexample, so the result always
// reproduces.
func (c *Checker) minimize(s *Script, kind string, runs *int64) *Script {
	cur := s.clone()
	budget := 2000
	reproduces := func(cand *Script) bool {
		if budget <= 0 {
			return false
		}
		budget--
		rr, err := c.replay(cand, nil)
		if err != nil {
			return false
		}
		*runs++
		return rr.kind == kind
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Windows); i++ {
			cand := cur.clone()
			cand.Windows = append(cand.Windows[:i], cand.Windows[i+1:]...)
			if reproduces(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := range cur.Windows {
			if len(cur.Windows[i].Cmds) < 2 {
				continue
			}
			for drop := 0; drop < len(cur.Windows[i].Cmds); drop++ {
				cand := cur.clone()
				w := &cand.Windows[i]
				w.Cmds = append(append([]Command(nil), w.Cmds[:drop]...), w.Cmds[drop+1:]...)
				if len(w.Cmds) > 0 {
					w.Cmds[0].Offset = 0
				}
				if reproduces(cand) {
					cur, changed = cand, true
					break
				}
			}
		}
		for i := range cur.Windows {
			for _, g := range c.cfg.PostGaps {
				if g >= cur.Windows[i].Gap {
					continue
				}
				cand := cur.clone()
				cand.Windows[i].Gap = g
				if reproduces(cand) {
					cur, changed = cand, true
					break
				}
			}
			for j := range cur.Windows[i].Cmds {
				for _, d := range c.cfg.RaceOffsets {
					if d >= cur.Windows[i].Cmds[j].Offset {
						continue
					}
					cand := cur.clone()
					cand.Windows[i].Cmds[j].Offset = d
					if reproduces(cand) {
						cur, changed = cand, true
						break
					}
				}
			}
		}
	}
	return cur
}

// Describe renders a script compactly for log lines: "g2:[c0W l0 | +4 S→2]".
func Describe(s *Script) string {
	if len(s.Windows) == 0 {
		return "(empty)"
	}
	out := ""
	for i, w := range s.Windows {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("g%d:[", w.Gap)
		for j, cmd := range w.Cmds {
			if j > 0 {
				out += fmt.Sprintf(" | +%d ", cmd.Offset)
			}
			if cmd.Switch {
				out += fmt.Sprintf("S→%d", cmd.Mode)
			} else {
				k := "R"
				if cmd.Write {
					k = "W"
				}
				out += fmt.Sprintf("c%d%s l%d", cmd.Core, k, cmd.Line)
			}
		}
		out += "]"
	}
	return out
}
