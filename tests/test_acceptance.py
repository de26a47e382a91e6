"""Acceptance gate: one test per shipped guarantee, all exact arithmetic.

Every test prints a single summary line (visible with pytest -s); a failed
assertion means the corresponding guarantee is broken.  Randomness is seeded,
so the suite is deterministic."""
import random
from fractions import Fraction

from dercalc.cocycle import (
    PAIR_AXIOMS,
    alien_check,
    cauchy_difference,
    char_decompose,
    cocycle_extend_positive,
    cocycle_primitive,
    cocycle_verify,
    leibniz_difference,
)
from dercalc.derivations import (
    AffineDerivation,
    derivation_define,
    independence_rank,
    iterate,
    leibniz_residual,
    power_rule_residual,
    reflection_residual,
    residual,
)
from dercalc.exact import IntegerWindow, MultiPoly, gf
from dercalc.feq import equation_by_name, feq_check
from dercalc.higher import (
    GammaTable,
    gamma_check,
    gamma_factor,
    hod_construct_next,
    hod_define,
    hod_eval,
    hod_leibniz_residual,
)
from dercalc.multiadd import PolyFunction, SymMultiMap, polarization_check, recover_components
from dercalc.session import fn_from_spec, parse_carrier
from dercalc.towers import element_eq, element_eval, tower_new


def ok(label):
    print(f"pass  {label}")


def tpoly(terms):
    return MultiPoly(("t",), {(e,): Fraction(c) for e, c in terms.items()})


def make_qt():
    tower = tower_new().adjoin_transcendental("t")
    t = element_eval(tower, "t")
    return tower, t, derivation_define(tower, {"t": 1})


def rand_coeffs(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([c for c in range(-9, 10) if c])))
    return coeffs


def poly_of(coeffs, t):
    acc = t - t
    for i, c in enumerate(coeffs):
        acc = acc + c * t ** i
    return acc


def coeff_derivative(coeffs):
    return [Fraction(i) * c for i, c in enumerate(coeffs)][1:] or [Fraction(0)]


def test_01_derivative_matches_independent_formal_rule():
    tower, t, d = make_qt()
    rng = random.Random(101)
    for _ in range(1000):
        p, q = rand_coeffs(rng, 8), rand_coeffs(rng, 8)
        elem = poly_of(p, t) / poly_of(q, t)
        # quotient rule assembled from bare coefficient-list differentiation
        num = poly_of(coeff_derivative(p), t) * poly_of(q, t) \
            - poly_of(p, t) * poly_of(coeff_derivative(q), t)
        expected = num / (poly_of(q, t) * poly_of(q, t))
        assert element_eq(d(elem), expected)
    ok("01 formal derivative agrees with coefficient-list oracle, 1000 samples")


def test_02_derivations_vanish_on_algebraic_numbers():
    tower = tower_new().adjoin_algebraic("r", "r^2 - 2").adjoin_algebraic("c", "c^3 - 5")
    d = derivation_define(tower, {})
    r = element_eval(tower, "r")
    c = element_eval(tower, "c")
    rng = random.Random(102)
    for _ in range(100):
        elem = sum(
            (Fraction(rng.randint(-9, 9)) * r ** i * c ** j
             for i in range(2) for j in range(3)),
            tower.rational(0),
        )
        if rng.random() < 0.5 and not elem.is_zero():
            elem = (1 + r * c) / elem
        assert d(elem).is_zero()
    ok("02 zero derivation stays zero on a tower of algebraic numbers")


def test_03_forced_square_root_extension():
    tower = tower_new().adjoin_transcendental("t").adjoin_algebraic("s", "s^2 - t")
    d = derivation_define(tower, {"t": 1})
    s = element_eval(tower, "s")
    t = element_eval(tower, "t")
    assert element_eq(d(s), 1 / (2 * s))
    assert (d(s * s) - d(t)).is_zero()
    rng = random.Random(103)
    for _ in range(500):
        x = sum(
            (Fraction(rng.randint(-5, 5)) * t ** i * s ** j
             for i in range(3) for j in range(2)),
            tower.rational(0),
        )
        y = t ** rng.randint(0, 3) * s ** rng.randint(0, 2) + rng.randint(-5, 5)
        assert leibniz_residual(d, x, y).is_zero()
    ok("03 forced algebraic value d(s) = 1/(2s) with Leibniz rule, 500 pairs")


def test_04_quotient_rule_is_a_consequence():
    tower, t, d = make_qt()
    rng = random.Random(104)
    for _ in range(500):
        u = poly_of(rand_coeffs(rng, 5), t)
        v = poly_of(rand_coeffs(rng, 5), t)
        direct = d(u / v)
        rearranged = (d(u) - (u / v) * d(v)) / v
        assert element_eq(direct, rearranged)
    ok("04 direct quotient evaluation equals the rearranged product rule, 500 pairs")


def test_05_difference_pairs_satisfy_all_axioms():
    rng = random.Random(105)
    carrier = gf(5)
    for _ in range(50):
        tab = {x: rng.randrange(5) for x in range(5)}
        F = cauchy_difference(tab, carrier)
        G = leibniz_difference(tab, carrier)
        report = cocycle_verify(F, G, axioms=PAIR_AXIOMS)
        assert report.ok
    for p in (3, 5, 7):
        tab = {x: rng.randrange(p) for x in range(p)}
        F = cauchy_difference(tab, gf(p))
        report = cocycle_verify(F, axioms=("zeta",))
        assert report.axioms["zeta"].status == "pass"
    ok("05 random difference pairs pass all six axioms on GF(5); zeta on 3,5,7")


def test_06_sign_extension_from_positive_integers():
    window = IntegerWindow(-12, 12)
    _, _, report = cocycle_extend_positive(lambda a, b: a * b, window)
    assert report.axioms["alpha"].status == "pass"
    assert report.axioms["beta"].status == "pass"
    rng = random.Random(106)
    pos = IntegerWindow(1, 12)
    for _ in range(20):
        tab = {k: rng.randint(-30, 30) for k in range(1, 13)}
        F = cauchy_difference(tab, pos)
        _, _, report = cocycle_extend_positive(F, window)
        assert report.axioms["alpha"].status == "pass"
        assert report.axioms["beta"].status == "pass"
    ok("06 product cocycle and 20 positive coboundaries extend to [-12, 12]")


def test_07_primitive_inverts_the_additive_difference():
    window = IntegerWindow(-20, 20)
    rng = random.Random(107)
    for _ in range(20):
        f = {k: rng.randint(-50, 50) for k in window.elements()}
        F = cauchy_difference(f, window)
        g = cocycle_primitive(F, window, f1=f[1])
        assert g == f
        shifted = cocycle_primitive(F, window, f1=f[1] + 3)
        assert all(shifted[k] - f[k] == 3 * k for k in window.elements())
    ok("07 primitive reconstruction inverts the difference up to a linear term")


def test_08_combined_equation_forces_both_parts():
    for p, pairs in ((3, ((1, 1), (1, 2), (2, 1))), (5, ((1, 1), (2, 3), (4, 1)))):
        carrier = gf(p)
        for lam, mu in pairs:
            report = alien_check(lam, mu, carrier)
            assert report.solutions == ((0,) * p,)
            assert report.only_zero and report.all_derivations
        zero = fn_from_spec("zero", carrier)
        assert feq_check(equation_by_name("cauchy-add"), {"f": zero}, {}).ok
        assert feq_check(equation_by_name("leibniz"), {"f": zero}, {}).ok
    ok("08 weighted sums only vanish jointly; zero solves both parts")


def test_09_mixed_solutions_decompose():
    p = 3
    carrier = gf(p)
    inv2 = pow(2, -1, p)

    def solves(f, g):
        return all(
            (f[(x + y) % p] - f[x] - f[y]) % p
            == (g[(x * y) % p] - x * g[y] - y * g[x]) % p
            for x in range(p) for y in range(p)
        )

    tables = [
        {i: (n // p ** i) % p for i in range(p)} for n in range(p ** p)
    ]
    count = 0
    for f in tables:
        for g in tables:
            if not solves(f, g):
                continue
            count += 1
            dec = char_decompose(f, g, carrier)
            for x in range(p):
                fx = (dec.beta * x + dec.alpha * x * x * (inv2 - 1)) % p
                gx = (dec.phi[x] + dec.alpha * x) % p
                assert (fx, gx) == (f[x], g[x])
    assert count == 9

    dec = char_decompose(lambda x: x * x, lambda x: 3 * x, gf(5))
    inv2 = pow(2, -1, 5)
    for x in range(5):
        assert (dec.beta * x + dec.alpha * x * x * (inv2 - 1)) % 5 == x * x % 5
        assert (dec.phi[x] + dec.alpha * x) % 5 == 3 * x % 5
    ok("09 all 9 mixed pairs on GF(3) and the GF(5) witness pair decompose")


def test_10_weight_tables_factor_and_drive_systems():
    assert gamma_factor(GammaTable.binomial(4)).values == (
        Fraction(1), Fraction(1), Fraction(2), Fraction(6), Fraction(24),
    )

    entries = {
        (i, j): GammaTable.binomial(4)(i, j)
        for i in range(5) for j in range(5 - i)
    }
    entries[(2, 2)] = Fraction(2)
    report = gamma_check(GammaTable(4, entries))
    assert not report.ok
    assert report.violations[0][:3] == (1, 1, 2)

    tower, t, d = make_qt()
    hd = hod_define(GammaTable.binomial(4), ("t",), {(1, "t"): tpoly({0: 1})})
    for m in range(9):
        maps = iterate(d, 4)
        for k in range(5):
            assert str(hod_eval(hd, k, tpoly({m: 1}))) == str(maps[k](t ** m))
    ok("10 binomial table factors into factorials; tampered entry rejected at (1,1,2)")


def test_11_next_order_is_well_defined_for_both_choices():
    hd1 = hod_define(GammaTable.binomial(1), ("t",), {(1, "t"): tpoly({0: 1})})
    for choice in (None, {"t": tpoly({1: 1})}):
        ext = hod_construct_next(hd1, GammaTable.binomial(2), choice, grid_degree=8)
        for i in range(9):
            for j in range(9 - i):
                residual = hod_leibniz_residual(ext, 2, tpoly({i: 1}), tpoly({j: 1}))
                assert not residual.terms
    ok("11 order-2 extension keeps the product rule for top values 0 and t")


def test_12_iterates_are_independent():
    tower, t, d = make_qt()
    maps = iterate(d, 3)
    points = [t ** 3, t ** 4, t ** 5, t ** 6]
    assert independence_rank(maps, points, {"t": Fraction(2)}) == 4
    ok("12 id, d, d^2, d^3 have rank 4 on the quartet of monomials")


def test_13_polarization_and_recovery():
    rng = random.Random(113)
    from itertools import combinations_with_replacement

    def rand_map(arity, dim):
        coeffs = {
            idx: Fraction(rng.randint(-9, 9))
            for idx in combinations_with_replacement(range(dim), arity)
        }
        return SymMultiMap(arity, dim, coeffs)

    for _ in range(200):
        arity, dim = rng.randint(1, 4), rng.randint(1, 3)
        A = rand_map(arity, dim)
        ys = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
              for _ in range(arity)]
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        assert polarization_check(A, ys, x).ok

    for _ in range(100):
        dim, degree = rng.randint(1, 2), rng.randint(0, 4)
        comps = [rand_map(k, dim) for k in range(degree + 1)]
        pf = PolyFunction(comps)
        assert recover_components(pf, degree, dim).components == pf.components
    ok("13 polarization holds on 200 tensors; 100 polynomial functions round-trip")


def test_14_parity_separates_the_two_means():
    window = parse_carrier("window:-10:10")
    parity = fn_from_spec("parity", window)
    assert feq_check(equation_by_name("hosszu"), {"f": parity}, {}).ok
    report = feq_check(equation_by_name("jensen"), {"f": parity}, {})
    assert not report.ok
    assert report.witness == (0, 2)
    ok("14 parity satisfies hosszu but fails jensen at (0, 2) on [-10, 10]")


def test_15_substitution_residuals_and_their_closed_forms():
    tower, t, d = make_qt()
    f1 = AffineDerivation(d, 1)
    rng = random.Random(115)
    for _ in range(50):
        x = poly_of(rand_coeffs(rng, 2), t) + rng.randint(1, 9) * t ** 3
        k = rng.choice([k for k in range(-3, 6) if k])
        n = rng.randint(1, 3)
        while True:
            a, b, c, dd = (rng.randint(-5, 5) for _ in range(4))
            if a * dd - b * c != 0:
                break

        for res in (
            power_rule_residual(d, k, x),
            reflection_residual(d, x),
            residual("square", d, x=x),
            residual("mobius", d, a=a, b=b, c=c, d=dd, n=n, x=x),
        ):
            assert res.is_zero()

        assert element_eq(power_rule_residual(f1, k, x), (1 - k) * x ** k)
        assert element_eq(reflection_residual(f1, x), 2 * x)
        assert element_eq(residual("square", f1, x=x), -(x * x))
        xn = x ** n
        den = c * xn + dd
        xi = (a * xn + b) / den
        xi_prime = Fraction(n) * (a * dd - b * c) * x ** (n - 1) / (den * den)
        assert element_eq(residual("mobius", f1, a=a, b=b, c=c, d=dd, n=n, x=x), xi - x * xi_prime)
    ok("15 four substitution residuals vanish for derivations and match closed forms")
