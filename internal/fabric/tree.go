package fabric

import (
	"fmt"

	"roadrunner/internal/params"
)

// tree is the fat-tree family: the paper's 2:1-tapered Roadrunner plant
// ("fattree", the default), the same wiring with ECMP-style hash
// spreading ("fattree-ecmp"), and a full-bisection variant with doubled
// uplink cable planes ("fattree-full"). The default configuration is
// pinned byte-identical to the pre-interface fabric: same hop counts,
// same link identities, same destination-hashed route choices.
type tree struct {
	cus  int
	name string
	// planes is the number of parallel uplink cable planes per inter-CU
	// switch: 1 is the paper's 2:1 taper (96 uplinks vs 180 node ports
	// per CU), 2 doubles every uplink cable and middle-stage plane for
	// a full-bisection (192 vs 180, ~1:1) tree. Link.B carries the
	// plane on uplink cables; switch-internal stage codes of plane 1
	// are offset by planeStageOffset.
	planes int
	// ecmp mixes the source line crossbar into the spine/switch/middle
	// hashes, spreading flows that share a destination but enter from
	// different crossbars over different cables — the static
	// approximation of adaptive/ECMP routing. Routes stay deterministic
	// per (source crossbar, destination), so the crossbar-granular
	// route cache remains exact.
	ecmp bool
}

func newTree(cus int, name string, planes int, ecmp bool) *tree {
	if cus < 1 || cus > params.MaxCUs {
		panic(fmt.Sprintf("fabric: %d CUs outside 1..%d", cus, params.MaxCUs))
	}
	return &tree{cus: cus, name: name, planes: planes, ecmp: ecmp}
}

func (t *tree) Name() string { return t.name }
func (t *tree) CUs() int     { return t.cus }

func (t *tree) validate(n NodeID) {
	if n.CU < 0 || n.CU >= t.cus || n.Node < 0 || n.Node >= params.NodesPerCU {
		panic(fmt.Sprintf("fabric: node %v outside %d-CU system", n, t.cus))
	}
}

// Hops returns the number of crossbars a minimal route between two
// compute nodes traverses (the paper's Table I metric). Identical for
// every tree variant: planes and hash spreading change which cables a
// route takes, never how many crossbars it crosses.
func (t *tree) Hops(a, b NodeID) int {
	t.validate(a)
	t.validate(b)
	if a == b {
		return 0
	}
	ka, kb := LineXbar(a.Node), LineXbar(b.Node)
	if a.CU == b.CU {
		if ka == kb {
			return 1 // same line crossbar
		}
		return 3 // line -> spine -> line inside the CU switch
	}
	// Different CU: the route climbs out of a's line crossbar into an
	// inter-CU switch. If both line crossbars have the same index, their
	// uplinks meet on the same switch-level crossbar: one middle hop.
	sameLevelXbar := ka == kb
	if firstSide(a.CU) == firstSide(b.CU) {
		if sameLevelXbar {
			// line -> switch level xbar -> line.
			return 3
		}
		// line -> level xbar -> middle -> level xbar -> line.
		return 5
	}
	// Opposite sides of the inter-CU switch: the route additionally
	// crosses the middle level.
	if sameLevelXbar {
		// line -> first-level -> middle -> last-level -> line.
		return 5
	}
	// line -> first-level -> middle -> middle -> last-level -> line
	// (two middle-stage crossbars to change level index).
	return 7
}

// PairClass names the Table I destination class of the route from a to
// b; see System.PairClass.
func (t *tree) PairClass(a, b NodeID) string {
	t.validate(a)
	t.validate(b)
	ka, kb := LineXbar(a.Node), LineXbar(b.Node)
	switch {
	case a == b:
		return "self"
	case a.CU == b.CU && ka == kb:
		return "same-xbar"
	case a.CU == b.CU:
		return "same-cu"
	case firstSide(a.CU) == firstSide(b.CU) && ka == kb:
		return "same-side-same-xbar"
	case firstSide(a.CU) == firstSide(b.CU):
		return "same-side-other-xbar"
	case ka == kb:
		return "cross-side-same-xbar"
	default:
		return "cross-side-other-xbar"
	}
}

func (t *tree) MaxRouteLen() int { return RouteMax }

// CacheKey is the source line crossbar: the route interior and hop
// count depend only on it and the destination — also under ECMP
// spreading, whose hashes mix in nothing finer than the crossbar.
func (t *tree) CacheKey(src NodeID) int { return src.XbarID() }
func (t *tree) CacheRows() int          { return t.cus * LineXbarsPerCU }

// hash is the routing hash the destination-addressed choices (spine,
// uplink switch, middle crossbars) derive from. The default tree hashes
// the destination alone — InfiniBand's static linear forwarding tables
// — reproducing the pre-interface routes bit for bit; the ECMP variant
// mixes in the source line crossbar so flows entering the plant at
// different crossbars spread over different cables.
func (t *tree) hash(dst, ka int) int {
	if t.ecmp {
		return dst + 13*ka
	}
	return dst
}

// plane picks the uplink cable plane of a route (always 0 on the
// tapered trees; alternating by hash on the full-bisection tree).
func (t *tree) plane(h int) int {
	if t.planes <= 1 {
		return 0
	}
	// h/4 rather than h: the switch choice already consumes h%4, and
	// dividing first decorrelates the plane from it.
	return (h / 4) % t.planes
}

// planeStageOffset shifts switch-internal stage codes of uplink plane 1
// past plane 0's three stages of 12 crossbars.
const planeStageOffset = 3 * params.InterCULevelsXbars

// RouteInto appends the route from a to b; see System.RouteInto.
func (t *tree) RouteInto(buf []Link, a, b NodeID) []Link {
	t.validate(a)
	t.validate(b)
	if a == b {
		return buf
	}
	ka, kb := LineXbar(a.Node), LineXbar(b.Node)
	buf = append(buf, Link{Kind: LinkNodePort, Up: true, CU: a.CU, Sw: -1, A: a.Node, B: ka})
	dst := b.GlobalID()
	switch {
	case a.CU == b.CU && ka == kb:
		// One crossbar: straight through the shared line crossbar.
	case a.CU == b.CU:
		// Line -> spine -> line inside the CU switch, spine chosen by
		// destination hash.
		sp := t.hash(dst, ka) % params.SwitchUpperXbars
		buf = append(buf,
			Link{Kind: LinkSpine, Up: true, CU: a.CU, Sw: -1, A: ka, B: sp},
			Link{Kind: LinkSpine, Up: false, CU: a.CU, Sw: -1, A: kb, B: sp})
	default:
		// Out of the CU: one of the source line crossbar's four uplink
		// switches, chosen by destination hash.
		h := t.hash(dst, ka)
		sw := UplinkSwitches(ka)[h%4]
		pl := t.plane(h)
		sa, sb := SwitchLevelXbar(ka), SwitchLevelXbar(kb)
		buf = append(buf, Link{Kind: LinkUplink, Up: true, CU: a.CU, Sw: sw, A: sa, B: pl})
		buf = t.appendSwitchInternal(buf, sw, a.CU, b.CU, ka, kb, h, pl)
		buf = append(buf, Link{Kind: LinkUplink, Up: false, CU: b.CU, Sw: sw, A: sb, B: pl})
	}
	return append(buf, Link{Kind: LinkNodePort, Up: false, CU: b.CU, Sw: -1, A: b.Node, B: kb})
}

// appendSwitchInternal emits the segments between the CU-facing crossbar
// the uplink lands on and the one the downlink leaves from, mirroring the
// crossbar counts Hops charges inside the inter-CU switch. h is the
// routing hash; pl the uplink plane (plane 1's stage codes are offset).
func (t *tree) appendSwitchInternal(buf []Link, sw, cuA, cuB, ka, kb, h, pl int) []Link {
	off := pl * planeStageOffset
	sa, sb := SwitchLevelXbar(ka), SwitchLevelXbar(kb)
	from := off + sideStage(cuA)*params.InterCULevelsXbars + sa
	to := off + sideStage(cuB)*params.InterCULevelsXbars + sb
	internal := func(f, t int) Link {
		return Link{Kind: LinkSwitchInternal, CU: -1, Sw: sw, A: f, B: t}
	}
	mid := func(i int) int { return off + stageMiddle*params.InterCULevelsXbars + i }
	sameSide := firstSide(cuA) == firstSide(cuB)
	switch {
	case sameSide && ka == kb:
		// Both uplinks land on the same CU-facing crossbar: no internal
		// segment (Table I's 3-hop shortcut).
		return buf
	case sameSide || ka == kb:
		// One middle crossbar: level -> middle -> level (5 hops total).
		m := mid(midHash(h))
		return append(buf, internal(from, m), internal(m, to))
	default:
		// Opposite sides and different crossbar index: the route crosses
		// the middle stage three times to change both level index and
		// side, matching Table I's 7-hop count.
		m1, m3 := sa, sb
		m2 := midHash(h)
		for m2 == m1 || m2 == m3 {
			m2 = (m2 + 1) % params.InterCULevelsXbars
		}
		return append(buf,
			internal(from, mid(m1)), internal(mid(m1), mid(m2)),
			internal(mid(m2), mid(m3)), internal(mid(m3), to))
	}
}

// Links enumerates the cable inventory: node ports, spines, uplinks
// (every plane) and the switch-internal segments routes can traverse,
// each in both directions.
func (t *tree) Links() []Link {
	var links []Link
	for cu := 0; cu < t.cus; cu++ {
		for n := 0; n < params.NodesPerCU; n++ {
			k := LineXbar(n)
			links = append(links,
				Link{Kind: LinkNodePort, Up: true, CU: cu, Sw: -1, A: n, B: k},
				Link{Kind: LinkNodePort, Up: false, CU: cu, Sw: -1, A: n, B: k})
		}
		for k := 0; k < LineXbarsPerCU; k++ {
			for sp := 0; sp < params.SwitchUpperXbars; sp++ {
				links = append(links,
					Link{Kind: LinkSpine, Up: true, CU: cu, Sw: -1, A: k, B: sp},
					Link{Kind: LinkSpine, Up: false, CU: cu, Sw: -1, A: k, B: sp})
			}
		}
		for sw := 0; sw < params.InterCUSwitches; sw++ {
			for slot := 0; slot < params.UplinksPerCUSwitch; slot++ {
				for pl := 0; pl < t.planes; pl++ {
					links = append(links,
						Link{Kind: LinkUplink, Up: true, CU: cu, Sw: sw, A: slot, B: pl},
						Link{Kind: LinkUplink, Up: false, CU: cu, Sw: sw, A: slot, B: pl})
				}
			}
		}
	}
	// Switch-internal segments: every side<->middle and middle<->middle
	// ordered pair, per switch, per plane.
	for sw := 0; sw < params.InterCUSwitches; sw++ {
		for pl := 0; pl < t.planes; pl++ {
			off := pl * planeStageOffset
			code := func(stage, i int) int { return off + stage*params.InterCULevelsXbars + i }
			for i := 0; i < params.InterCULevelsXbars; i++ {
				for j := 0; j < params.InterCULevelsXbars; j++ {
					m := code(stageMiddle, j)
					for _, side := range [2]int{stageFirst, stageLast} {
						s := code(side, i)
						links = append(links,
							Link{Kind: LinkSwitchInternal, CU: -1, Sw: sw, A: s, B: m},
							Link{Kind: LinkSwitchInternal, CU: -1, Sw: sw, A: m, B: s})
					}
					if i != j {
						links = append(links,
							Link{Kind: LinkSwitchInternal, CU: -1, Sw: sw, A: code(stageMiddle, i), B: m})
					}
				}
			}
		}
	}
	return links
}
