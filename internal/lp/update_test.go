package lp

import (
	"math"
	"math/rand"
	"testing"
)

// These tests cover the pivot update path of Solver: the product-form
// update of B⁻¹, λ and π between refreshes, the refresh every 2·d pivots,
// and the final refresh before a solve returns.

// checkDualCertificate verifies optimality of res from the solver's final
// basis by strong duality, independently of how the iterations got there:
// the basic dual values λ must be ≥ 0, combine the basic columns into c
// (Aᵀy = c), and price at the returned objective value (b·y = c·x). With X
// primal feasible, weak duality then makes X optimal.
func checkDualCertificate(t *testing.T, s *Solver, p *Problem, c []float64, res *Result) {
	t.Helper()
	const tol = 1e-9
	checkFeasible(t, p, res.X, "certificate")
	d := s.d
	resid := append([]float64(nil), c...)
	col := make([]float64, d)
	dual := 0.0
	for i, k := range s.basis {
		y := s.lambda[i]
		if y < -tol {
			t.Fatalf("basic dual value %d (column %d) is %v < 0", i, k, y)
		}
		s.column(k, col)
		for j := range resid {
			resid[j] -= y * col[j]
		}
		dual += y * s.w[k]
	}
	for j, r := range resid {
		if math.Abs(r) > tol*(1+math.Abs(c[j])) {
			t.Fatalf("dual residual %v in coordinate %d", r, j)
		}
	}
	if gap := math.Abs(dual - res.Value); gap > tol*(1+math.Abs(res.Value)) {
		t.Fatalf("duality gap %v: dual %v, primal %v", gap, dual, res.Value)
	}
	if v := objective(c, res.X); math.Abs(v-res.Value) > tol*(1+math.Abs(v)) {
		t.Fatalf("Value %v but c·X = %v", res.Value, v)
	}
}

// TestLongPivotRunsCrossRefresh drives solves long enough to cross the
// periodic refresh several times. At d=16, m=10⁴ — the shape of
// BenchmarkMaximizeD16M10000, about 90 pivots a solve against a refresh
// every 32 — Seidel's recursion is far too slow to serve as the oracle, so
// each optimum is checked by its duality certificate. At d=6, m=5000 (20–26
// pivots against a refresh every 12) the optima are also compared with
// MaximizeSeidel.
func TestLongPivotRunsCrossRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("large solves and the Seidel oracle")
	}
	for _, tc := range []struct {
		d, m   int
		seed   int64
		seidel bool
	}{
		{16, 10000, 2, false},
		{6, 5000, 5, true},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		p, _ := feasibleProblem(rng, tc.d, tc.m)
		var s Solver
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		c := make([]float64, tc.d)
		longest := 0
		for trial := 0; trial < 4; trial++ {
			for j := range c {
				c[j] = rng.NormFloat64()
			}
			if trial == 0 { // BenchmarkMaximizeD16M10000's objective
				clear(c)
				c[7%tc.d] = -1
			}
			res, err := s.Solve(c)
			if err != nil {
				t.Fatalf("d=%d trial %d: Solve: %v", tc.d, trial, err)
			}
			longest = max(longest, res.Iterations)
			checkDualCertificate(t, &s, p, c, res)
			if !tc.seidel {
				continue
			}
			want, err := MaximizeSeidel(p, c, rand.New(rand.NewSource(int64(trial))))
			if err != nil {
				t.Fatalf("d=%d trial %d: seidel: %v", tc.d, trial, err)
			}
			if diff := math.Abs(res.Value - want.Value); diff > 1e-7*(1+math.Abs(want.Value)) {
				t.Fatalf("d=%d trial %d: solver %v vs seidel %v", tc.d, trial, res.Value, want.Value)
			}
		}
		if longest <= 2*tc.d {
			t.Fatalf("d=%d: longest solve took %d pivots, not past the refresh interval %d", tc.d, longest, 2*tc.d)
		}
	}
}

// TestBlandFallbackDegenerateDuplicates builds a problem whose every pivot
// is degenerate: x_0 appears in no constraint, so the starting basis for
// c = e_0 already has the optimal value hi_0 = 1, and the solve is a long
// run of zero-step pivots through duplicated rows (each constraint also
// appears as an exact scaled copy) until the rest of the point is feasible.
// Any solve longer than 2·d+21 pivots has therefore switched to Bland's
// rule; it must still terminate at a feasible optimum.
func TestBlandFallbackDegenerateDuplicates(t *testing.T) {
	const d, m = 12, 200
	rng := rand.New(rand.NewSource(12200))
	p := &Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	for j := range p.Hi {
		p.Hi[j] = 1
	}
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		dot := 0.0
		for j := 1; j < d; j++ {
			a[j] = rng.NormFloat64()
			dot += a[j] * 0.5
		}
		b := dot + 0.1*rng.Float64() // keeps (½,…,½) feasible
		a2 := make([]float64, d)
		for j := range a {
			a2[j] = 2 * a[j]
		}
		p.Cons = append(p.Cons, Constraint{A: a, B: b}, Constraint{A: a2, B: 2 * b})
	}
	c := make([]float64, d)
	c[0] = 1
	var s Solver
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 2*d+21 {
		t.Fatalf("%d pivots: the degenerate run never reached the Bland threshold", res.Iterations)
	}
	if res.Value != 1 {
		t.Fatalf("Value = %v, want 1", res.Value)
	}
	checkDualCertificate(t, &s, p, c, res)
}

// TestSolverReuseAcrossShapes reuses one Solver across Loads that change d
// and m in both directions — including infeasible problems that abandon a
// solve mid-run and slab boxes set with SetBounds — and requires every
// Result to be bitwise the one a fresh Solver returns: no B⁻¹, λ, π or basis
// state may leak from one Load into the next.
func TestSolverReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var reused Solver
	shapes := [][2]int{{9, 300}, {2, 5}, {12, 40}, {3, 0}, {12, 400}, {5, 120}, {1, 7}, {9, 30}, {16, 200}, {4, 60}}
	for round := 0; round < 3; round++ {
		for si, sh := range shapes {
			d, m := sh[0], sh[1]
			p, p0 := feasibleProblem(rng, d, m)
			if si%4 == 3 && m > 0 {
				// Make it infeasible: a row that excludes the whole box.
				a := make([]float64, d)
				a[0] = 1
				p.Cons[m/2] = Constraint{A: a, B: -1}
			}
			if (round+si)%3 == 0 {
				lo, hi := make([]float64, d), make([]float64, d)
				for j := range lo {
					lo[j] = p0[j] * rng.Float64()
					hi[j] = p0[j] + (1-p0[j])*rng.Float64()
				}
				p.Lo, p.Hi = lo, hi
			}
			if err := reused.Load(p); err != nil {
				t.Fatal(err)
			}
			c := make([]float64, d)
			for trial := 0; trial < 3; trial++ {
				for j := range c {
					c[j] = rng.NormFloat64()
				}
				got, errGot := reused.Solve(c)
				var fresh Solver
				if err := fresh.Load(p); err != nil {
					t.Fatal(err)
				}
				want, errWant := fresh.Solve(c)
				if errGot != errWant {
					t.Fatalf("round %d shape %v: reused err %v, fresh err %v", round, sh, errGot, errWant)
				}
				if errGot != nil {
					continue
				}
				if !sameResult(got, want) {
					t.Fatalf("round %d shape %v trial %d: reused %+v, fresh %+v", round, sh, trial, *got, *want)
				}
			}
		}
	}
}

// sameResult reports whether two Results are bitwise identical.
func sameResult(a, b *Result) bool {
	if a.Iterations != b.Iterations || math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
		len(a.X) != len(b.X) || len(a.Tight) != len(b.Tight) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	for i := range a.Tight {
		if a.Tight[i] != b.Tight[i] {
			return false
		}
	}
	return true
}
