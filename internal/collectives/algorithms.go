package collectives

import (
	"math/bits"

	"roadrunner/internal/units"
)

// semanticLen is the length of the small validated payload vector
// carried by broadcast and the full-vector allreduce algorithms. It is
// deliberately independent of the modeled wire size: correctness rides
// on a handful of exactly-representable values while the timing model
// streams the configured byte count.
const semanticLen = 16

// Tag spaces. Each comm serves exactly one collective, so tags only need
// to be unique within one algorithm: fold/unfold frame the non-power-of-
// two reduction, step/gather number rounds within a phase.
const (
	tagBcast  = 1 << 20
	tagFold   = 2 << 20
	tagUnfold = 3 << 20
	tagStep   = 4 << 20
	tagGather = 5 << 20
)

// payload is a message's semantic content: one value for the algorithms
// that move a segment at a time (the ring passes, alltoall), which so
// allocate nothing per message, and a vector for the rest.
type payload struct {
	val float64
	vec []float64
}

// How an exchange's recv folds the payload into the rank's vector at
// its index.
const (
	foldNone = iota
	addVal   // out[into] += val
	setVal   // out[into] = val
	addVec   // out[into:] += vec, elementwise
	setVec   // out[into:] = vec
)

// exchange is one step of a rank program: a send to dst, then a recv of
// the message from src, folded into the rank's vector as fold says;
// either half may be absent, and a send-then-recv shares one tag.
type exchange struct {
	send, recv bool
	dst, src   int
	tag        int
	size       units.Size // the send's modeled wire size
	data       payload    // the send's semantic payload
	fold       uint8
	into       int
}

// sendRecv makes x a send to dst then a recv from src on one tag. It
// stores field by field: the hot programs (ring passes, alltoall) fill
// their rank's exchange in place once per step, never copying a whole
// exchange.
func (x *exchange) sendRecv(dst, src, tag int, size units.Size, data payload, fold uint8, into int) {
	x.send, x.recv = true, true
	x.dst, x.src, x.tag = dst, src, tag
	x.size, x.data = size, data
	x.fold, x.into = fold, into
}

// program is one rank's side of a collective algorithm: next fills x
// with the rank's next exchange, generated from a few words of state,
// and returns false once the rank is done; out is the semantic vector
// the recvs fold into, and the rank's final payload.
type program struct {
	next func(x *exchange) bool
	out  []float64
}

// algorithm builds rank r's program for a collective over n ranks, with
// size the collective's message size parameter and root the broadcast
// root.
type algorithm func(r, n, root int, size units.Size) program

// algorithms maps each Op to its rank programs.
var algorithms = map[Op]algorithm{
	BcastBinomial:              bcastBinomial,
	BarrierRecursiveDoubling:   barrierRecursiveDoubling,
	AllreduceRecursiveDoubling: allreduceRecursiveDoubling,
	AllreduceRabenseifner:      allreduceRabenseifner,
	AllreduceRing:              allreduceRing,
	AllgatherRing:              allgatherRing,
	AlltoallPairwise:           alltoallPairwise,
}

func cloneSlice(v []float64) []float64 { return append([]float64(nil), v...) }

// addInto folds b elementwise into a.
func addInto(a, b []float64) {
	for i := range b {
		a[i] += b[i]
	}
}

// mod is a mod n in 0..n-1 for either sign of a.
func mod(a, n int) int { return (a%n + n) % n }

// floorPow2 returns the largest power of two <= n (n >= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// realRank maps a participant index of the power-of-two phase back to
// its actual rank under the MPICH fold: participants below rem are the
// odd ranks of the fold region, the rest sit above it.
func realRank(newrank, rem int) int {
	if newrank < rem {
		return 2*newrank + 1
	}
	return newrank + rem
}

// sizeFrac returns ceil(size * num / den) bytes, the wire size of a
// message carrying num of den virtual segments.
func sizeFrac(size units.Size, num, den int) units.Size {
	if num <= 0 || size <= 0 {
		return 0
	}
	return units.Size((int64(size)*int64(num) + int64(den) - 1) / int64(den))
}

// bcastBinomial is the binomial-tree broadcast: ceil(log2 P) levels, the
// root sending to progressively closer subtree roots, each forwarding
// down its subtree. Hop-limited latency grows with the tree depth; every
// edge carries the full payload.
func bcastBinomial(r, n, root int, size units.Size) program {
	rel := (r - root + n) % n
	data := make([]float64, semanticLen)
	if rel == 0 {
		for i := range data {
			data[i] = contribution(root, i)
		}
	}
	// Children sit at every power of two h above rel; the parent is rel
	// with its highest set bit cleared.
	h := 1
	for h <= rel {
		h *= 2
	}
	recvd := rel == 0
	return program{out: data, next: func(x *exchange) bool {
		if !recvd {
			recvd = true
			*x = exchange{recv: true, src: (rel - h/2 + root) % n, tag: tagBcast, fold: setVec}
			return true
		}
		if rel+h >= n {
			return false
		}
		dst := (rel + h + root) % n
		h *= 2
		*x = exchange{send: true, dst: dst, tag: tagBcast, size: size, data: payload{vec: data}}
		return true
	}}
}

// barrierRecursiveDoubling is the dissemination form of the
// recursive-doubling barrier, which handles any rank count in exactly
// ceil(log2 P) rounds: in round k every rank signals (r + 2^k) mod P and
// waits for (r - 2^k) mod P. No payload moves; the cost is pure software
// overhead and hop latency per round.
func barrierRecursiveDoubling(r, n, _ int, _ units.Size) program {
	k := 0
	return program{next: func(x *exchange) bool {
		dist := 1 << k
		if dist >= n {
			return false
		}
		x.sendRecv((r+dist)%n, (r-dist+n)%n, tagStep+k, 0, payload{}, foldNone, 0)
		k++
		return true
	}}
}

// allreduceRecursiveDoubling exchanges and folds full vectors between
// pairs at doubling distances: log2 P rounds, each moving the whole
// payload. Latency-optimal for small messages; bandwidth-poor for large
// ones (every round retransmits everything).
func allreduceRecursiveDoubling(r, n, _ int, size units.Size) program {
	return allreduce(r, n, size, func(f *reduction, i int, x *exchange) bool {
		if i == f.rounds {
			return false
		}
		partner := realRank(f.newrank^(1<<i), f.rem)
		x.sendRecv(partner, partner, tagStep+i, size, payload{vec: cloneSlice(f.vec)}, addVec, 0)
		return true
	})
}

// allreduceRabenseifner is reduce-scatter by recursive halving followed
// by allgather by recursive doubling: each halving round exchanges half
// of the remaining range, so total traffic is ~2*size*(1-1/P) per rank
// instead of recursive doubling's size*log2(P) — the large-message
// algorithm of the MPICH/Open MPI lineage.
func allreduceRabenseifner(r, n, _ int, size units.Size) program {
	return allreduce(r, n, size, func(f *reduction, i int, x *exchange) bool {
		if i == 2*f.rounds {
			return false
		}
		if i < f.rounds {
			// Halving round i: keep one half of the range, ship the other.
			lv := f.level(i)
			partner := realRank(f.newrank^(f.pof2>>(i+1)), f.rem)
			sendLo, sendHi, sendV, recvLo := lv.mid, lv.hi, lv.vhi-lv.vmid, lv.lo
			if !lv.keptLow {
				sendLo, sendHi, sendV, recvLo = lv.lo, lv.mid, lv.vmid-lv.vlo, lv.mid
			}
			x.sendRecv(partner, partner, tagStep+i, sizeFrac(size, sendV, f.pof2),
				payload{vec: cloneSlice(f.vec[sendLo:sendHi])}, addVec, recvLo)
			return true
		}
		// Allgather mirrors the halvings innermost-out: at each level the
		// pair exchanges owned ranges, doubling what both hold.
		i = 2*f.rounds - 1 - i
		lv := f.level(i)
		partner := realRank(f.newrank^(f.pof2>>(i+1)), f.rem)
		ownLo, ownHi, ownV, otherLo := lv.lo, lv.mid, lv.vmid-lv.vlo, lv.mid
		if !lv.keptLow {
			ownLo, ownHi, ownV, otherLo = lv.mid, lv.hi, lv.vhi-lv.vmid, lv.lo
		}
		x.sendRecv(partner, partner, tagGather+i, sizeFrac(size, ownV, f.pof2),
			payload{vec: cloneSlice(f.vec[ownLo:ownHi])}, setVec, otherLo)
		return true
	})
}

// reduction is a rank's vector allreduce state. For rank counts that
// are not a power of two, the MPICH fold frames the power-of-two phase
// over pof2 participants (rounds = log2 pof2): even ranks below 2*rem
// ship their vector to the odd rank above and sit out (newrank -1); odd
// ranks fold it in and join; afterwards the odd ranks of the fold region
// return the finished vector to the even rank that sat out.
type reduction struct {
	rem, pof2, rounds, newrank int
	vec                        []float64
}

// allreduce builds rank r's vector allreduce: the fold down, phase(f, i,
// x) filling the power-of-two phase's exchange i until it returns false,
// then the fold up.
func allreduce(r, n int, size units.Size, phase func(f *reduction, i int, x *exchange) bool) program {
	pof2 := floorPow2(n)
	f := &reduction{rem: n - pof2, pof2: pof2, rounds: bits.Len(uint(pof2)) - 1,
		newrank: r - (n - pof2), vec: make([]float64, semanticLen)}
	for i := range f.vec {
		f.vec[i] = contribution(r, i)
	}
	inFold, even := r < 2*f.rem, r%2 == 0
	if inFold {
		f.newrank = r / 2
		if even {
			f.newrank = -1
		}
	}
	down, i, up := inFold, 0, inFold
	return program{out: f.vec, next: func(x *exchange) bool {
		if down {
			down = false
			if even {
				*x = exchange{send: true, dst: r + 1, tag: tagFold, size: size,
					data: payload{vec: cloneSlice(f.vec)}}
			} else {
				*x = exchange{recv: true, src: r - 1, tag: tagFold, fold: addVec}
			}
			return true
		}
		if f.newrank >= 0 && phase(f, i, x) {
			i++
			return true
		}
		if up {
			up = false
			if even {
				*x = exchange{recv: true, src: r + 1, tag: tagUnfold, fold: setVec}
			} else {
				*x = exchange{send: true, dst: r - 1, tag: tagUnfold, size: size,
					data: payload{vec: cloneSlice(f.vec)}}
			}
			return true
		}
		return false
	}}
}

// level is one halving round of Rabenseifner's phase. The virtual range
// (vlo, vhi) over pof2 segments models the wire size; the real range
// (lo, hi) over the semantic vector carries the validated values; both
// split at their mid, and keptLow says which half the rank kept.
type level struct {
	lo, mid, hi    int
	vlo, vmid, vhi int
	keptLow        bool
}

// level returns halving round i's split. Rounds are few (log2 P), so the
// allgather re-derives each level from the full ranges instead of
// keeping a stack.
func (f *reduction) level(i int) level {
	lo, hi, vlo, vhi := 0, semanticLen, 0, f.pof2
	for k := 0; ; k++ {
		lv := level{lo, lo + (hi-lo)/2, hi, vlo, vlo + (vhi-vlo)/2, vhi, f.newrank&(f.pof2>>(k+1)) == 0}
		if k == i {
			return lv
		}
		if lv.keptLow {
			hi, vhi = lv.mid, lv.vmid
		} else {
			lo, vlo = lv.mid, lv.vmid
		}
	}
}

// allreduceRing is the bandwidth-optimal ring: a reduce-scatter pass
// then an allgather pass, each P-1 steps moving size/P bytes, so every
// rank sends ~2*size total regardless of P — at the price of 2(P-1)
// latency terms. The semantic vector has one element per segment.
func allreduceRing(r, n, _ int, size units.Size) program {
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = contribution(r, i)
	}
	// Reduce-scatter: after step s every rank has folded one more
	// segment; after n-1 steps rank r fully owns segment (r+1) mod n.
	// Then the allgather circulates the finished segments.
	reduce := ring(r, n, 0, tagStep, sizeFrac(size, 1, n), addVal, vec)
	gather := ring(r, n, 1, tagGather, sizeFrac(size, 1, n), setVal, vec)
	return program{out: vec, next: func(x *exchange) bool { return reduce(x) || gather(x) }}
}

// allgatherRing circulates each rank's block around the ring: P-1 steps
// of size bytes each (size is the per-rank contribution).
func allgatherRing(r, n, _ int, size units.Size) program {
	vec := make([]float64, n)
	vec[r] = contribution(r, 0)
	return program{out: vec, next: ring(r, n, 0, tagStep, size, setVal, vec)}
}

// ring generates one ring pass of n-1 steps: in step s rank r sends
// segment (r+off-s) mod n to its successor and receives segment
// (r+off-s-1) mod n from its predecessor, folded in as how says.
func ring(r, n, off, tag int, size units.Size, how uint8, vec []float64) func(x *exchange) bool {
	s := 0
	return func(x *exchange) bool {
		if s >= n-1 {
			return false
		}
		x.sendRecv((r+1)%n, (r-1+n)%n, tag+s, size,
			payload{val: vec[mod(r+off-s, n)]}, how, mod(r+off-s-1, n))
		s++
		return true
	}
}

// alltoallPairwise exchanges personalized blocks in P-1 rounds: in round
// k rank r sends its block for (r+k) mod P and receives from (r-k) mod P
// (size is the per-destination block). Total traffic per rank grows
// linearly in P — the algorithm that most stresses the 2:1 taper.
func alltoallPairwise(r, n, _ int, size units.Size) program {
	out := make([]float64, n)
	out[r] = contribution(r, r)
	k := 0
	return program{out: out, next: func(x *exchange) bool {
		k++
		if k >= n {
			return false
		}
		dst, src := (r+k)%n, (r-k+n)%n
		x.sendRecv(dst, src, tagStep+k, size, payload{val: contribution(r, dst)}, setVal, src)
		return true
	}}
}
