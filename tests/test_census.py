import math

import numpy as np
import pytest
from sympy import nextprime, prevprime

from quatsurf import arith, census, cli, quadfields
from quatsurf.census import (
    SCAN_LIMIT,
    SEGMENT,
    PrimePredicate,
    algebra_census,
    count_squarefree_over_P,
    mean_value_fit,
    prime_density_report,
    squarefree_values,
)
from quatsurf.errors import BoundaryPrimeError, VerificationError
from quatsurf.fieldforge import construct_fields
from quatsurf.quadfields import QuadraticField, SplitType, fundamental_discriminants, ramification_probability_check, splitting, wood_stats
from quatsurf.quatalg import embeds, fuchsian_admissible, is_isomorphic
from quatsurf.relquad import RelQuadExt

from oracles import (
    fundamental_discs_oracle,
    prime_in_P_oracle,
    squarefree_count_sieve_oracle,
    squarefree_subset_oracle,
    wood_count_oracle,
)


LARGE_DELTAS = (-1048579, -1048580)  # -7*163*919 and -4*5*13*37*109, longer than SEGMENT


class TestInP:
    def test_examples(self, predicate_n1):
        assert predicate_n1.in_P(41)
        assert not predicate_n1.in_P(13)
        assert not predicate_n1.in_P(3)  # inert in Q(i)

    def test_boundary_rejected(self, predicate_n1):
        assert sorted(predicate_n1.boundary) == [2, 5]
        with pytest.raises(BoundaryPrimeError):
            predicate_n1.in_P(5)
        with pytest.raises(BoundaryPrimeError):
            predicate_n1.in_P(2)

    def test_composite_rejected(self, predicate_n1):
        with pytest.raises(ValueError):
            predicate_n1.in_P(15)

    def test_conjugate_symmetry(self, family_n1):
        # evaluating with either square root of delta gives the same answer
        from quatsurf import arith

        ext = family_n1.extensions[0]
        for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
            r = arith.mod_sqrt(-4 % p, p)
            answers = set()
            for root in (r, p - r):
                bs = [(ext.x + root) % p, (ext.x - root) % p]
                answers.add(all(arith.kronecker(b, p) == -1 for b in bs))
            assert len(answers) == 1, p

    def test_smallest_member(self, predicate_n1):
        members = [int(m) for m in predicate_n1.members_up_to(100)]
        assert members[0] == 41

    def test_empty_family_is_split_primes(self):
        pred = PrimePredicate(-4)
        k = QuadraticField(-4)
        for p in (3, 5, 7, 11, 13, 17):
            if p in pred.boundary:
                continue
            assert pred.in_P(p) == (splitting(k, p) is SplitType.SPLIT)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestMembersScan:
    def test_matches_enumeration_oracle(self):
        # -15 with x = 1 fits a modulus-64 table but has class number two, so it
        # scans prime-side; -19 and -43 have class number one but 4*N(beta) > 64
        preds = [
            PrimePredicate(delta, construct_fields(delta, n).extensions if n else [])
            for delta in (-3, -4, -7, -8, -11) + LARGE_DELTAS
            for n in range(4)
        ]
        preds += [PrimePredicate(-15, [RelQuadExt(-15, 1)])]
        preds += [PrimePredicate(delta, construct_fields(delta, 1).extensions) for delta in (-19, -43)]
        want = {pred: [] for pred in preds}
        for p in arith.primes_up_to(2 * 10**4).tolist():  # primes outermost: the oracle caches per p
            for pred in preds:
                if p not in pred.boundary and prime_in_P_oracle(pred.delta_k, pred.xs, p):
                    want[pred].append(p)
        for pred in preds:
            assert pred.members_up_to(2 * 10**4).tolist() == want[pred], (pred.delta_k, pred.xs)

    def test_no_table_longer_than_column(self, family_n1, monkeypatch):
        # each fixed symbol left is one symbol_column per segment: prime-side,
        # (delta|p), then (x^2 - delta|p) by the discriminant of Q(sqrt(x^2 - delta));
        # after the walk, only the symbols of the generators outside its table.
        # An odd residue table is built only when it is no longer than the column of
        # primes (Euler's criterion builds p = 2's 8-entry table)
        columns, tables = [], []
        column = quadfields.symbol_column
        monkeypatch.setattr(census, "symbol_column", lambda d, ps: columns.append((d, len(ps))) or column(d, ps))
        table = quadfields._kronecker_table
        monkeypatch.setattr(quadfields, "_kronecker_table", lambda p: tables.append((p, columns[-1][1])) or table(p))
        PrimePredicate(-4, family_n1.extensions).members_up_to(3 * SEGMENT + 5)
        assert columns == []  # the walk's table decides x = 1: no (-4|p), no (5|p)
        PrimePredicate(-4, construct_fields(-4, 2).extensions).members_up_to(3 * SEGMENT + 5)
        PrimePredicate(LARGE_DELTAS[0], construct_fields(LARGE_DELTAS[0], 1).extensions).members_up_to(SEGMENT + 5)
        assert [d for d, _ in columns] == [13] * 4 + [LARGE_DELTAS[0], 262145] * 2
        odd = [(p, n) for p, n in tables if p != 2]
        assert all(p <= n for p, n in odd)
        # x = 3 of the n = 2 family is left to 13: a table in the three full segments,
        # none for the empty walk of the last one of five integers; |delta| = 1048579
        # and 262145 are longer than the ~82,000 primes of a segment, so Euler's
        # criterion decides them
        assert [p for p, _ in odd] == [13] * 3

    def test_fixed_symbol_discriminants(self):
        # the n = 1 census families: x^2 - delta = 7, 5, 12 give D = 28, 5, 12
        for delta, disc in ((-3, 28), (-4, 5), (-8, 12)):
            assert PrimePredicate(delta, construct_fields(delta, 1).extensions)._discs == (delta, disc)
        # 4^2 + 4 = 2^2 * 5 has kernel 5 = 1 (mod 4); 6^2 + 4 = 2^3 * 5 has kernel 10
        assert PrimePredicate(-4, [RelQuadExt(-4, 4), RelQuadExt(-4, 6)])._discs == (-4, 5, 40)
        assert PrimePredicate(-3, [RelQuadExt(-3, 1)])._discs == (-3, 1)
        # x^2 + 4 at x = 10^8 + 3 is a prime near 10^16, far past trial division
        assert PrimePredicate(-4, [RelQuadExt(-4, 10**8 + 3)])._discs == (-4, (10**8 + 3) ** 2 + 4)

    def test_euler_fallback_and_square_norm(self):
        # x = 2001: x^2 + 4 = 4004005 is its own discriminant, longer than
        # any column, so Euler's criterion decides; 1 - (-3) = 4 is a square,
        # whose symbol is the trivial character
        assert PrimePredicate(-4, [RelQuadExt(-4, 2001)])._discs == (-4, 4004005)
        ps = arith.primes_up_to(3 * 10**4)
        assert quadfields.symbol_column(4004005, ps).tolist() == [arith.kronecker(4004005, p) for p in ps.tolist()]
        assert quadfields.symbol_column(1, ps).tolist() == [1] * len(ps)
        for delta, xs in ((-4, (1, 2001)), (-4, (2001,)), (-3, (1,)), (-3, (1, 2))):
            pred = PrimePredicate(delta, [RelQuadExt(delta, x) for x in xs])
            want = [p for p in arith.primes_up_to(3 * 10**4).tolist() if p not in pred.boundary and prime_in_P_oracle(delta, xs, p)]
            assert pred.members_up_to(3 * 10**4).tolist() == want, (delta, xs)

    def test_matches_scalar_test_to_1e6(self):
        pred = PrimePredicate(-4, construct_fields(-4, 2).extensions)
        primes = [p for p in arith.primes_up_to(10**6).tolist() if p not in pred.boundary]
        want = [p for p in primes if pred.in_P(p)]
        assert pred.members_up_to(10**6).tolist() == want

    def test_incremental_scan_matches_single_scan(self, family_n1):
        # bounds off the segment grid, so the incremental segments start elsewhere
        whole = PrimePredicate(-4, family_n1.extensions).members_up_to(2 * SEGMENT + 12_345)
        pred = PrimePredicate(-4, family_n1.extensions)
        for bound in (100, SEGMENT - 777, 2 * SEGMENT + 12_345):
            part = pred.members_up_to(bound)
        assert np.array_equal(part, whole)
        assert np.array_equal(pred.members_up_to(SEGMENT), whole[whole <= SEGMENT])

    def test_process_pool_matches_serial(self, family_n1):
        bound = 2 * SEGMENT + 999
        serial = PrimePredicate(-4, family_n1.extensions).members_up_to(bound)
        sharded = PrimePredicate(-4, family_n1.extensions).members_up_to(bound, shards=2)
        assert np.array_equal(serial, sharded)

    def test_shards_clamped_to_cpu_count(self, family_n1, monkeypatch):
        pools = []

        def fake_pool(max_workers):
            pools.append(_InlinePool(max_workers))
            return pools[-1]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool)
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        reports = []
        bound = 3 * SEGMENT + 5
        members = PrimePredicate(-4, family_n1.extensions).members_up_to(bound, shards=100_000, progress=reports.append)
        assert [p.max_workers for p in pools] == [2]
        assert reports == [SEGMENT + 1, 2 * SEGMENT + 1, 3 * SEGMENT + 1, bound]
        assert np.array_equal(members, PrimePredicate(-4, family_n1.extensions).members_up_to(bound))

    def test_shards_below_one_rejected(self, family_n1):
        pred = PrimePredicate(-4, family_n1.extensions)
        for shards in (0, -3):
            with pytest.raises(ValueError):
                pred.members_up_to(1000, shards=shards)

    def test_int64_limit_refused(self, family_n1):
        pred = PrimePredicate(-4, family_n1.extensions)
        for bound in (SCAN_LIMIT, 10**12):
            with pytest.raises(ValueError, match="int64"):
                pred.members_up_to(bound)
        assert pred.members_up_to(100)[0] == 41

    def test_power_in_k(self):
        def power(x, d, e, p):  # exact (x + t)^e in F_p[t]/(t^2 - d), one factor at a time
            u, v = 1, 0
            for _ in range(e):
                u, v = (u * x + d * v) % p, (u + v * x) % p
            return u, v

        ps = np.array([3, 5, 7, 13, 97, 101, 65537], dtype=np.int64)
        xs, ds, es = ps // 2, (ps * 2) // 3, np.array([0, 1, 2, 5, 48, 50, 77])
        u, v = census._power_in_k(xs, ds, es, ps)
        assert list(zip(u.tolist(), v.tolist())) == [power(*map(int, t)) for t in zip(xs, ds, es, ps)]
        empty = np.empty(0, dtype=np.int64)
        assert [len(a) for a in census._power_in_k(empty, empty, empty, empty)] == [0, 0]

    def test_scan_at_int64_edge(self):
        # the ring power's intermediates reach p^2 + p, just below 2^63, at the top of
        # the scan range; the walk's a-intervals there come from float square roots
        # of 4*hi - |delta|*b^2 near 1.2e10, made exact by the integer window test
        lo, hi = SCAN_LIMIT - 2 * 10**5, SCAN_LIMIT - 1
        primes = [p for p in range(lo + 1, hi + 1, 2) if arith.is_prime(p)]
        for delta, n in ((-4, 2), (LARGE_DELTAS[0], 1), (-4, 1), (-7, 1)):
            pred = PrimePredicate(delta, construct_fields(delta, n).extensions)
            found = pred._segment_scan()(lo, hi)
            want = [p for p in primes if p not in pred.boundary and pred.in_P(p)]
            assert len(want) > 100 and found.tolist() == want, delta

    @staticmethod
    def prime_side(delta, xs, bound, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(census, "TABLE_MODULUS", 1)
            assert census._table_plan(delta, xs) == (1, ())
            return PrimePredicate(delta, [RelQuadExt(delta, x) for x in xs]).members_up_to(bound)

    def test_walk_matches_prime_side(self, monkeypatch):
        # n = 2 and 3 leave generators past the modulus cap to the ring power
        for delta in (-3, -4, -7, -8, -11):
            for n in (1, 2, 3):
                xs = tuple(e.x for e in construct_fields(delta, n).extensions)
                assert census._table_plan(delta, xs)[1] == xs[:1]
                walk = PrimePredicate(delta, [RelQuadExt(delta, x) for x in xs]).members_up_to(10**6)
                assert np.array_equal(walk, self.prime_side(delta, xs, 10**6, monkeypatch)), (delta, n)

    @pytest.mark.parametrize("delta", [-3, -4, -8])
    def test_walk_matches_prime_side_to_1e7(self, delta, monkeypatch):
        xs = tuple(e.x for e in construct_fields(delta, 1).extensions)
        walk = PrimePredicate(delta, [RelQuadExt(delta, x) for x in xs]).members_up_to(10**7)
        assert len(walk) > 80_000 and np.array_equal(walk, self.prime_side(delta, xs, 10**7, monkeypatch))

    def test_table_selection(self):
        # greedy in order while lcm(4*N(beta)) <= 64, and only for class number one
        plan = census._table_plan
        assert plan(-3, (2,)) == (28, (2,))  # N = 7
        assert plan(-4, (1, 3, 637)) == (20, (1,))  # lcm(20, 52) = 260 > 64
        assert plan(-3, (0, 1)) == (48, (0, 1))  # lcm(12, 16)
        assert plan(-15, (1,)) == (1, ())  # 4 * 16 = 64 fits, but h(-15) = 2
        assert plan(-43, (45,)) == (1, ())  # h = 1, but 4 * 2068 > 64
        assert plan(-4, ()) == (1, ())  # n = 0 scans prime-side
        assert [e.x for e in construct_fields(-4, 3).extensions] == [1, 3, 637]
        assert [e.x for e in construct_fields(-43, 1).extensions] == [45]

    @pytest.mark.parametrize("delta, xs", [(-3, (2,)), (-4, (1,)), (-7, (2,)), (-8, (2,)), (-11, (1,)), (-3, (0, 1)), (-4, (2,))])
    def test_class_table_is_periodic(self, delta, xs):
        # each entry is the Jacobi value at the further primitive representatives
        # (a0 + kM, b0 + lM), k, l in {1, 2}; classes whose values share a factor
        # with M are empty
        M, tabled = census._table_plan(delta, xs)
        assert tabled == xs
        table = census._class_table(delta, xs, M)
        B = delta & 1
        C = (B - delta) // 4
        checked = 0
        for a0 in range(M):
            for b0 in range(M):
                if math.gcd(a0 * a0 + B * a0 * b0 + C * b0 * b0, M) > 1:
                    assert not table[a0, b0]
                    continue
                for a, b in ((a0 + k * M, b0 + l * M) for k in (1, 2) for l in (1, 2)):
                    if math.gcd(a, b) == 1:
                        n, L = a * a + B * a * b + C * b * b, 2 * a + B * b
                        symbols = [arith.kronecker(b * (x * b + s * L), n) for x in xs for s in (1, -1)]
                        assert table[a0, b0] == (symbols == [-1] * len(symbols)), (a0, b0, a, b)
                        checked += 1
        assert table.any() and checked > M * M // 4

    def test_scan_memory(self):
        # the walk holds one odd-only SEGMENT strip (512 KB), which it marks in
        # place, and the uint32 members so far (0.32 MB at 10^7, grown in place)
        # next to a few WALK_CHUNK arrays of 64 KB; no list of chunk results and
        # no sort.  It peaks at 1.31-1.41 MiB
        import tracemalloc

        for delta in (-3, -4, -8):
            pred = PrimePredicate(delta, construct_fields(delta, 1).extensions)
            tracemalloc.start()
            try:
                pred.members_up_to(10**7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.65 * 2**20, (delta, peak)

    def test_members_held_once(self):
        # 720,255 members to 10^8: 2.75 MiB in uint32, appended in place, so
        # the scan peaks at 3.8 MiB; merging a copy of them, or an int64 array
        # held twice (11 MiB), breaks the bound
        import tracemalloc

        pred = PrimePredicate(-4, construct_fields(-4, 1).extensions)
        tracemalloc.start()
        try:
            members = pred.members_up_to(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(members) == 720_255
        assert peak < 8 * 2**20, peak

    def test_scan_past_cache_keeps_views(self, family_n1):
        # an incremental scan copies the cache once, so a view handed out
        # before it still reads the members it was given
        pred = PrimePredicate(-4, family_n1.extensions)
        view = pred.members_up_to(SEGMENT)
        before = view.tolist()
        extended = pred.members_up_to(3 * SEGMENT + 5)
        assert view.tolist() == before and before == extended[extended <= SEGMENT].tolist()
        assert np.array_equal(extended, PrimePredicate(-4, family_n1.extensions).members_up_to(3 * SEGMENT + 5))

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("hook", ["trace", "profile"])
    def test_scan_under_a_tracer(self, family_n1, hook, shards):
        # a trace or profile function, as debuggers, profilers and coverage set,
        # holds references that ndarray.resize's reference check counts
        import sys

        bound = 3 * SEGMENT
        want = PrimePredicate(-4, family_n1.extensions).members_up_to(bound)
        get, set_hook = getattr(sys, "get" + hook), getattr(sys, "set" + hook)
        previous = get()
        set_hook(lambda *args: None)
        try:
            got = PrimePredicate(-4, family_n1.extensions).members_up_to(bound, shards=shards)
        finally:
            set_hook(previous)
        assert np.array_equal(got, want)

    def test_in_P_beyond_scan_limit(self, predicate_n1):
        from sympy.ntheory import is_quad_residue, sqrt_mod

        primes = arith.iter_primes(SCAN_LIMIT + 10**6)
        for p in (next(primes) for _ in range(40)):
            want = is_quad_residue(-4, p) and not any(is_quad_residue(1 + s * sqrt_mod(-4, p), p) for s in (1, -1))
            assert predicate_n1.in_P(p) == want, p


class TestDensityReport:
    def test_n0_near_half(self):
        report = prime_density_report(PrimePredicate(-4), 10**5)
        assert abs(report.final_ratio - 0.5) < 0.1

    def test_checkpoints_monotone(self, predicate_n1):
        report = prime_density_report(predicate_n1, 10**4)
        counts = [r.count for r in report.rows]
        assert counts == sorted(counts)
        assert report.rows[-1].checkpoint == 10**4

    def test_n2_family_near_one_thirtysecond(self):
        fam = construct_fields(-4, 2)
        report = prime_density_report(PrimePredicate(-4, fam.extensions), 10**6)
        assert 0.02 <= report.final_ratio <= 0.045  # around 1/32 = 0.03125

    def test_small_bound_rejected(self, predicate_n1):
        with pytest.raises(ValueError):
            prime_density_report(predicate_n1, 50)


class TestSquarefreeCount:
    def test_examples(self, predicate_n1):
        assert count_squarefree_over_P(predicate_n1, 40) == 0
        assert count_squarefree_over_P(predicate_n1, 41) == 1
        assert count_squarefree_over_P(predicate_n1, 1) == 0

    def test_dual_mode_agreement(self, predicate_n1):
        # include bounds that do not align with sieve segments or checkpoints
        for bound in (37, 1234, 10**3, 10**4, 99_999, 10**5):
            assert squarefree_count_sieve_oracle(predicate_n1, bound) == count_squarefree_over_P(predicate_n1, bound), bound

    def test_dual_mode_agreement_n2(self):
        fam = construct_fields(-4, 2)
        pred = PrimePredicate(-4, fam.extensions)
        for bound in (10**3, 10**4):
            assert squarefree_count_sieve_oracle(pred, bound) == count_squarefree_over_P(pred, bound)

    @pytest.mark.parametrize("delta", [-3, -4, -7, -8])
    def test_levels_match_oracles(self, delta):
        for n in range(4):
            pred = PrimePredicate(delta, construct_fields(delta, n).extensions if n else [])
            top = 2 * 10**4 if n == 0 else 10**6
            m = pred.members_up_to(top).tolist()
            # bounds below 2, below the smallest member, equal to products of members, off any grid;
            # and where a product turns from leaf to internal node: just below a product of two or
            # three members, at the largest pair product m_k * m_(k+1) <= top and either side of it
            pair = max(a * b for a, b in zip(m, m[1:]) if a * b <= top)
            bounds = [-5, 0, 1, 2, m[0] - 1, m[0], (m[0] + m[0] * m[1]) // 2, m[0] * m[1] - 1, m[0] * m[1], m[1] * m[2] - 1, m[1] * m[2]]
            bounds += [m[0] * m[1] * m[2] - 1, m[0] * m[1] * m[2], pair - 1, pair, pair + 1, 9_999, top]
            for bound in (b for b in bounds if b <= top):
                want = squarefree_subset_oracle(m, bound)
                assert squarefree_values(pred, bound) == want, (delta, n, bound)
                assert count_squarefree_over_P(pred, bound) == len(want), (delta, n, bound)
                if bound >= 2:
                    assert squarefree_count_sieve_oracle(pred, bound) == len(want), (delta, n, bound)
            assert all(type(v) is int for v in squarefree_values(pred, top))

    def test_count_memory(self):
        # the count expands only the internal nodes, a few hundred at 10^8;
        # building every product, 850,463 of them, peaks at 20 MB
        import tracemalloc

        pred = PrimePredicate(-4, construct_fields(-4, 1).extensions)
        pred.members_up_to(10**8)
        tracemalloc.start()
        try:
            count = count_squarefree_over_P(pred, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 850_463
        assert peak < 256 * 2**10, peak


class TestMeanValueFit:
    def test_degenerate_tau_one(self):
        counts = [(10**2, 10**2), (10**3, 10**3), (10**4, 10**4)]
        fit = mean_value_fit(counts, 1.0)
        assert fit.constant == pytest.approx(1.0)
        assert all(r.local_constant == pytest.approx(1.0) for r in fit.rows)

    def test_preconditions(self):
        good = [(100, 5), (1000, 30), (10000, 200)]
        with pytest.raises(ValueError):
            mean_value_fit(good, 1.5)
        with pytest.raises(ValueError):
            mean_value_fit(good, 0.0)
        with pytest.raises(ValueError):
            mean_value_fit(good[:2], 0.5)
        with pytest.raises(ValueError):
            mean_value_fit([(100, 5), (200, 8), (400, 12)], 0.5)

    def test_stabilizing_constant(self, predicate_n1):
        counts = [(10**k, count_squarefree_over_P(predicate_n1, 10**k)) for k in (3, 4, 5)]
        fit = mean_value_fit(counts, 1 / 8)
        assert fit.constant > 0
        assert fit.last_decade_drift < 0.10


class TestAlgebraCensus:
    def test_threshold_examples(self, family_n1):
        census = algebra_census(PrimePredicate(-4, family_n1.extensions), 1682)
        assert census.count == 1
        assert census.d_values == [41]
        assert census.algebras[0].disc_f_abs == 41**2
        assert algebra_census(PrimePredicate(-4, family_n1.extensions), 1600).count == 0

    def test_every_algebra_verified(self, family_n1, predicate_n1):
        census = algebra_census(predicate_n1, 10**6)
        assert census.count == count_squarefree_over_P(predicate_n1, math.isqrt(10**6 - 1))
        for alg in census.algebras:
            assert fuchsian_admissible(alg)
            for ext in family_n1.extensions:
                assert embeds(alg, ext)
        # pairwise distinct ramification sets
        for i, a in enumerate(census.algebras):
            for b in census.algebras[i + 1 :]:
                assert not is_isomorphic(a, b)

    @pytest.mark.parametrize(
        "d, message",
        [
            (21, "is not admissible"),  # 3 and 7 are inert in Q(i): no conjugate pairs to ramify at
            (13, "rejects an extension"),  # 13 splits in Q(i) but not in P: x_1 = 1 is a square at a prime above it
        ],
    )
    def test_certificates_fire(self, family_n1, monkeypatch, capsys, d, message):
        # the squarefree values are the producer one step upstream: let a d off P through
        monkeypatch.setattr(census, "squarefree_values", lambda pred, bound: [d])
        with pytest.raises(VerificationError, match=message):
            algebra_census(PrimePredicate(-4, family_n1.extensions), 10**4)
        assert cli.main(["census", "--delta", "-4", "--n", "1", "--x", "1e4"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"census algebra for d={d} {message}" in err


class TestWoodStats:
    def test_seven_split_three_inert(self):
        stats = wood_stats(7, [3], 10**5)
        assert stats.predicted == pytest.approx((6 / math.pi**2) * 10**5 * 0.5 * (7 / 16) * (3 / 8))
        assert abs(stats.ratio - 1) < 0.05

    def test_no_constraints(self):
        stats = wood_stats(None, [], 10**5)
        assert stats.count == sum(1 for _ in fundamental_discriminants(10**5, "imaginary"))
        assert stats.predicted == pytest.approx((3 / math.pi**2) * 10**5)

    def test_contradictory(self):
        stats = wood_stats(3, [3], 10**4)
        assert stats == (0, 0.0, None)

    # the last two cases take rows by Euler's criterion and by the scalar symbol
    CASES = ((7, (3,)), (2, (5,)), (None, (2, 3)), (13, ()), (None, (7, 11, 13)), (10**9 + 7, (3,)), (3000000037, ()))

    @staticmethod
    def scalar_count(q_split, q_inert, x):
        count = 0
        for d in fundamental_discs_oracle(x, "imaginary"):
            k = QuadraticField(d)
            if q_split is not None and splitting(k, q_split) is not SplitType.SPLIT:
                continue
            if any(splitting(k, q) is not SplitType.INERT for q in q_inert):
                continue
            count += 1
        return count

    def test_matches_scalar_enumeration(self):
        for q_split, q_inert in self.CASES:
            assert wood_stats(q_split, q_inert, 10**4).count == self.scalar_count(q_split, q_inert, 10**4)

    def test_block_edges(self, monkeypatch):
        expected = [self.scalar_count(q_split, q_inert, 10**4) for q_split, q_inert in self.CASES]
        monkeypatch.setattr(quadfields, "BLOCK", 1000)
        assert [wood_stats(q_split, q_inert, 10**4).count for q_split, q_inert in self.CASES] == expected

    def test_independence_multiplicativity(self):
        # predicted(A u B) * base = predicted(A) * predicted(B) for disjoint sets
        x = 10**5
        base = (6 / math.pi**2) * x * 0.5
        pa = wood_stats(None, [3, 7], x).predicted
        pb = wood_stats(None, [11], x).predicted
        pab = wood_stats(None, [3, 7, 11], x).predicted
        assert pab * base == pytest.approx(pa * pb)

    def test_duplicate_inert_rejected(self):
        with pytest.raises(ValueError):
            wood_stats(None, [3, 3], 10**4)


# q = 2, q = 3, the primes just below and just above BLOCK, and one far past it; x spans
# at least three blocks, so the offset lo % q of each pattern moves and wraps from block
# to block.  The live BLOCK takes its own edge primes; 2^20, its former size, stays covered.
WOOD_BLOCKS = {
    64: (61, 67, 10**4 + 17),
    1000: (997, 1009, 10**4 + 17),
    quadfields.BLOCK: (prevprime(quadfields.BLOCK), nextprime(quadfields.BLOCK), 3 * quadfields.BLOCK + 17),
    1 << 20: (1048573, 1048583, 3 * 10**6 + 1),
}


class TestWoodStatsMasks:
    @pytest.mark.parametrize("block", sorted(WOOD_BLOCKS))
    @pytest.mark.parametrize("which", ["2", "3", "below", "above", "1e9+7"])
    def test_matches_int64_filter(self, monkeypatch, block, which):
        below, above, x = WOOD_BLOCKS[block]
        q = {"2": 2, "3": 3, "below": below, "above": above, "1e9+7": 10**9 + 7}[which]
        monkeypatch.setattr(quadfields, "BLOCK", block)
        for q_split, q_inert in ((q, []), (None, [q]), (5, [q, 7]), (q, [5, 11])):
            assert wood_stats(q_split, q_inert, x).count == wood_count_oracle(q_split, q_inert, x), (q_split, q_inert)


class TestBlockEngine:
    def test_memory_bounded_by_block(self):
        # each block ANDs period runs built once per call into its strip in place; with
        # 2^20-value blocks and a window product per block the peaks read 4-5 MiB
        import tracemalloc

        x = 3 * 2**20 + 5
        for name, call in (("wood_stats", lambda: wood_stats(37, [53, 59, 139, 101], x)), ("count", lambda: quadfields.count_fundamental_discriminants(x))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (name, peak)

    def test_block_size_invariant(self, monkeypatch):
        # 1000 is no multiple of 16 nor of any q below, so lo % 16 and lo % q wrap between blocks
        x = 2**20 + 5
        seen = {}
        for block in (1000, 1 << 16, 1 << 20):
            monkeypatch.setattr(quadfields, "BLOCK", block)
            counts = tuple(quadfields.count_fundamental_discriminants(x, sign) for sign in ("imaginary", "real", "both"))
            seen[block] = (counts, wood_stats(37, [53, 59, 139, 101], x), ramification_probability_check(3, x))
        assert seen[1000] == seen[1 << 16] == seen[1 << 20], seen


class TestRamificationProbability:
    def test_small_primes(self):
        for ell, x, tol in ((2, 10**5, 0.02), (3, 10**5, 0.02), (5, 10**5, 0.05)):
            check = ramification_probability_check(ell, x)
            assert check.target == pytest.approx(1 / (ell + 1))
            assert abs(check.ratio / check.target - 1) < tol, ell

    def test_counts_both_signs(self, monkeypatch):
        discs = fundamental_discs_oracle(10**4, "both")
        monkeypatch.setattr(quadfields, "BLOCK", 1000)
        for ell in (2, 3, 7):
            check = ramification_probability_check(ell, 10**4)
            assert (check.count, check.total) == (sum(1 for d in discs if d % ell == 0), len(discs))
