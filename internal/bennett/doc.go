// Package bennett implements Bennett's algorithm (J. M. Bennett,
// "Triangular factors of modified matrices", Numerische Mathematik 7,
// 1965) for updating an LDU factorization under a low-rank
// modification, specialized to the sparse evolving-matrix deltas of the
// CLUDE setting.
//
// # Derivation (rank-1 case)
//
// Let A = L·D·U (L, U unit triangular, D diagonal) and
// A' = A + σ·y·zᵀ. Partition on the first row/column:
//
//	A = | d₁      d₁·uᵀ          |     y = (y₁, y₂),  z = (z₁, z₂)
//	    | d₁·l    l·d₁·uᵀ + A₂₂ |
//
// Matching entries of A' = L'·D'·U' gives
//
//	d₁' = d₁ + σ·y₁·z₁
//	l'  = (d₁·l + σ·z₁·y₂) / d₁'
//	u'  = (d₁·u + σ·y₁·z₂) / d₁'
//
// and the trailing Schur complement reduces (after algebra that uses
// d₁ − d₁²/d₁' = d₁·σ·y₁·z₁/d₁') to
//
//	A₂₂' = A₂₂ + σ·(d₁/d₁')·(y₂ − y₁·l)·(z₂ − z₁·u)ᵀ,
//
// i.e. the same problem one dimension smaller with
//
//	σ ← σ·d₁/d₁',   y ← y₂ − y₁·l,   z ← z₂ − z₁·u.
//
// The sparse implementation processes only indices i where y[i] ≠ 0 or
// z[i] ≠ 0 (a sorted support list tracks them as they grow along the
// factor patterns), touches only structural entries of L column i and U
// row i plus the out-of-structure positions where genuinely new fill
// appears. It truncates nothing: every position a step writes joins the
// support and is propagated at its own step, however small its value.
//
// # Rank-k deltas
//
// An EMS step ∆A = A_{t+1} − A_t with entries in rows r₁ < … < r_k is
// decomposed as Σᵢ e_{rᵢ}·wᵢᵀ and applied as k sequential rank-1
// updates (σ = 1, y = e_r, z = w). This is the standard way to feed a
// sparse delta to Bennett's recurrence; the cost is proportional to the
// delta's rank times the touched factor structure, matching the
// complexity the paper cites.
//
// # One entry point, two containers
//
// Workspace.ApplyTerms is the one update entry point: callers split ∆A
// once with SplitTerms and apply the terms to either lu container.
// Into a lu.StaticFactors it writes in place, and the frozen structure
// (in CLUDE, the cluster USSP) must cover all fill the update creates:
// genuinely new positions above DropTolerance produce ErrOutOfPattern.
// Into lu.DynamicFactors it splices new nodes into the adjacency lists,
// faithfully reproducing the list-restructuring cost the paper profiles
// at ~70% of Bennett time in the traditional INC/CINC implementations;
// fill no larger than 1e-10 is not spliced but counted in Stats.Dropped
// (fillCutoff, the package's one threshold besides DropTolerance and
// lu.PivotTolerance).
// Either container, when its factors are their own transpose and ∆A is
// symmetric, takes the symmetric cross path instead (symmetric.go), so
// the two are compared with one kernel on symmetric data as on directed
// data.
package bennett
