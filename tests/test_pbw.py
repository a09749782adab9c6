"""Normal ordering onto the PBW basis, basis enumeration, characters."""

import random
from fractions import Fraction
from math import lcm

import pytest

from nlca.algebra import Presentation, TPoly
from nlca.algebra import render_tpoly
from nlca.calculus import Engine
from nlca.frontend import load_bundled, parse_source
from nlca.pbw import (MAX_WEIGHT_UNITS, PBWError, Reducer, WeightLimitError,
                      character, enumerate_basis, inversions,
                      is_normally_ordered)

from builders import bundled_names, memo_terms
from conftest import CONCRETE
from randgen import random_mono, random_rgen, random_tensor


# -- inversion counting ------------------------------------------------------

def test_inversions_frozen(virasoro, free_fermion, affine_sl2):
    p = virasoro
    assert inversions(p, ()) == 0
    assert inversions(p, p.mono("L")) == 0
    assert inversions(p, p.mono("L", ("L", 1))) == 0
    assert inversions(p, p.mono(("L", 1), "L")) == 1
    assert inversions(p, p.mono(("L", 2), ("L", 1), "L")) == 3
    assert inversions(p, p.mono("L", "L")) == 0

    f = free_fermion
    # an adjacent equal odd pair counts as a violation
    assert inversions(f, f.mono("phi", "phi")) == 1
    assert inversions(f, f.mono(("phi", 1), "phi")) == 1
    assert inversions(f, f.mono("phi", "phi", "phi")) == 3

    s = affine_sl2
    assert inversions(s, s.mono("e", "h", "f")) == 0
    assert inversions(s, s.mono("h", "e")) == 1
    assert inversions(s, s.mono("f", "h", "e")) == 3


def test_is_normally_ordered(virasoro, free_fermion):
    p = virasoro
    assert is_normally_ordered(p, ())
    assert is_normally_ordered(p, p.mono("L", "L", ("L", 2)))
    assert not is_normally_ordered(p, p.mono(("L", 1), "L"))
    f = free_fermion
    assert not is_normally_ordered(f, f.mono("phi", "phi"))
    assert is_normally_ordered(f, f.mono("phi", ("phi", 1)))


# -- frozen reductions -------------------------------------------------------

def test_reduce_swap_virasoro(virasoro, reducers):
    p = virasoro
    got = reducers["virasoro"].normal_order(p.poly({p.mono(("L", 1), "L"): 1}))
    want = p.poly({
        p.mono("L", ("L", 1)): 1,
        p.mono(("L", 3)): Fraction(-1, 6),
    })
    assert got == want
    assert render_tpoly(got) == "-1/6*:T^3 L: + :L T L:"


def test_reduce_odd_repeat_fermion(free_fermion, reducers):
    # phi (x) phi rewrites to (1/2) N(lie(phi, phi), 1), and that bracket
    # integrates to zero
    f = free_fermion
    assert reducers["free_fermion"].normal_order(
        f.poly({f.mono("phi", "phi"): 1})).is_zero


def test_reduce_fixes_ordered_input(presentations, reducers):
    rng = random.Random(11)
    for name in CONCRETE:
        p, red = presentations[name], reducers[name]
        for _ in range(10):
            mono = random_mono(p, rng)
            if not is_normally_ordered(p, mono):
                continue
            x = p.poly({mono: 1})
            assert red.normal_order(x) == x


def test_reduce_idempotent_and_ordered(presentations, reducers):
    rng = random.Random(12)
    for name in CONCRETE:
        p, red = presentations[name], reducers[name]
        for _ in range(8):
            x = random_tensor(p, rng, 2, 3)
            y = red.normal_order(x)
            assert red.normal_order(y) == y
            for mono in y.terms:
                assert is_normally_ordered(p, mono)


def test_reduce_preserves_weight_and_parity(presentations, reducers):
    rng = random.Random(13)
    for name in CONCRETE:
        p, red = presentations[name], reducers[name]
        for _ in range(8):
            mono = random_mono(p, rng)
            y = red.normal_order(p.poly({mono: 1}))
            for out in y.terms:
                assert p.mono_weight(out) == p.mono_weight(mono)
                assert p.mono_parity(out) == p.mono_parity(mono)


def test_reduce_is_linear(virasoro, reducers):
    p = virasoro
    red = reducers["virasoro"]
    rng = random.Random(14)
    x, y = random_tensor(p, rng), random_tensor(p, rng)
    c = p.field.param("c")
    assert red.normal_order(x.scale(c) + y) == \
        red.normal_order(x).scale(c) + red.normal_order(y)


def test_reduce_long_reversed_word(free_boson):
    # a swap chain of 1,830 rewrites, far deeper than the recursion limit;
    # free-boson corrections are central and integrate to zero
    p = free_boson
    word = p.mono(*(("a", n) for n in range(60, -1, -1)))
    got = Reducer(Engine(p)).normal_order(p.poly({word: 1}))
    assert got == p.poly({tuple(reversed(word)): 1})


def test_reduce_fermion_word_to_signed_sorted_word(free_fermion):
    # free-fermion corrections are 0, so a word of distinct T powers
    # reduces to its sorted word, signed by the parity of its inversions
    p = free_fermion
    rng = random.Random(19)
    for n in (2, 3, 7, 12):
        powers = rng.sample(range(20), n)
        word = p.mono(*(("phi", k) for k in powers))
        got = Reducer(Engine(p)).normal_order(p.poly({word: 1}))
        sign = (-1) ** inversions(p, word)
        assert got == p.poly({tuple(sorted(word)): sign})


class _StoreLog(dict):
    """An Engine's memo that counts its stores by key tag and its wipes,
    and records the most entries it ever held."""
    wipes = most = 0

    def __init__(self):
        super().__init__()
        self.stores = {}

    def __setitem__(self, key, val):
        super().__setitem__(key, val)
        self.stores[key[0]] = self.stores.get(key[0], 0) + 1
        self.most = max(self.most, len(self))

    def clear(self):
        self.wipes += 1
        super().clear()


def _w3_word(p):
    # the swaps fill the store with commutators, the corrections
    # N(lie(W, W), ...) with N and P entries and their normal forms with
    # more: 112 entries without a limit
    return p.poly({p.mono(("W", 1), "W", "L", "W"): 1})


def test_cache_limit_caps_the_reducer_memo(w3, monkeypatch):
    p = w3
    x = _w3_word(p)
    want = Reducer(Engine(p)).normal_order(x)
    monkeypatch.setenv("NLCA_CACHE_LIMIT", "50")
    e = Engine(p)
    e._memo = _StoreLog()
    assert Reducer(e).normal_order(x) == want
    assert 0 < e._memo.most <= 50
    assert e._memo.wipes > 0


def test_cache_limit_wipes_the_engine_memos_together(w3, monkeypatch):
    # N, P, lie and the normal forms share the one store and its limit
    p = w3
    x = _w3_word(p)
    want = Reducer(Engine(p)).normal_order(x)
    monkeypatch.setenv("NLCA_CACHE_LIMIT", "12")
    e = Engine(p)
    e._memo = _StoreLog()
    assert Reducer(e).normal_order(x) == want
    assert set(e._memo.stores) == {"n", "p", "lie", "no"}
    assert e._memo.wipes > 0
    assert e._memo.most <= 12


def test_reversed_free_boson_word_builds_each_commutator_once(free_boson):
    # every free-boson commutator is 0, so no swap builds a correction or
    # reaches the P memo; the chain swaps each of the 780 inverted pairs
    # once and stores one normal form, which a second Reducer on the same
    # Engine reads without a rewrite
    p = free_boson
    word = p.mono(*(("a", n) for n in range(39, -1, -1)))
    x = p.poly({word: 1})
    want = p.poly({tuple(reversed(word)): 1})
    e = Engine(p)
    red = Reducer(e)
    assert red.normal_order(x) == want
    # one descent check per swap, one swap per inversion
    assert red.descent_checks == inversions(p, word) == 780
    again = Reducer(e)
    assert again.normal_order(x) == want
    assert again.descent_checks == 0
    assert e.stats["p_calls"] == 0
    assert e.stats["lie_calls"] == 780 and e.stats["lie_hits"] == 0
    assert sorted(k[0] for k in e._memo) == ["lie"] * 780 + ["no"]


def test_swap_chain_sums_no_degrees(free_boson, monkeypatch):
    # a swap is checked from its pair alone, and a zero correction has no
    # degrees to compare, so the reversed word sums none
    p = free_boson
    word = p.mono(*(("a", n) for n in range(39, -1, -1)))
    calls = []
    units = Presentation.mono_units

    def counted(self, mono):
        calls.append(mono)
        return units(self, mono)
    monkeypatch.setattr(Presentation, "mono_units", counted)
    red = Reducer(Engine(p))
    assert red.normal_order(p.poly({word: 1})) == \
        p.poly({tuple(reversed(word)): 1})
    assert red.descent_checks == 780
    assert calls == []


def test_every_monitor_message_is_reachable(virasoro):
    p = virasoro
    red = Reducer(Engine(p))
    L, L1, L2 = p.mono("L", ("L", 1), ("L", 2))
    zero = p.zero()
    red._monitor((L1, L), zero, (L, L1), 0)  # an exchange that descends
    red._monitor((L1, L), zero, (L, L2), 0)  # recounted: one fewer inversion
    cases = [
        ((L1, L), zero, (L,), "swap changed the degree of :T L L:"),
        ((L, L1), zero, (L1, L),
         "swap did not lower the inversion count of :L T L:"),
        ((L1, L), zero, (L2, L),
         "swap did not lower the inversion count of :T L L:"),
        ((L1, L), p.poly({(L, L, L): 1}), (L, L1),
         "correction term :L L L: does not drop the degree below 4"),
    ]
    for E, corr, swapped, message in cases:
        with pytest.raises(PBWError) as info:
            red._monitor(E, corr, swapped, 0)
        assert str(info.value) == message
    assert red.descent_checks == 2 + len(cases)


# -- the kernel of sigma -----------------------------------------------------

def test_sigma_kills_m_elements(presentations, engines, reducers):
    rng = random.Random(15)
    for name in CONCRETE:
        p, e, red = presentations[name], engines[name], reducers[name]
        for _ in range(5):
            A = random_tensor(p, rng, terms=1, max_factors=1)
            D = random_tensor(p, rng, max_factors=2)
            rb = random_mono(p, rng, 1, False)[0]
            rc = random_mono(p, rng, 1, False)[0]
            assert red.normal_order(e.m_element(A, rb, rc, D)).is_zero


def test_sigma_constant_on_m_cosets(presentations, engines, reducers):
    # adding an element of the span of A (x) sn(b, c, D) never changes
    # the normal form
    rng = random.Random(16)
    for name in CONCRETE:
        p, e, red = presentations[name], engines[name], reducers[name]
        for _ in range(4):
            x = random_tensor(p, rng, 2, 3)
            A = random_tensor(p, rng, terms=1, max_factors=1)
            D = random_tensor(p, rng, max_factors=2)
            rb = random_mono(p, rng, 1, False)[0]
            rc = random_mono(p, rng, 1, False)[0]
            shifted = x + e.m_element(A, rb, rc, D).scale(Fraction(3, 2))
            assert red.normal_order(shifted) == red.normal_order(x)


# -- strategy independence ---------------------------------------------------

def _random_strategy_reduce(engine, rng, x):
    out = engine.pres.zero()
    for mono, s in x.terms.items():
        out = out + _random_strategy_mono(engine, rng, mono).scale(s)
    return out


def _random_strategy_mono(engine, rng, E):
    """Rewrite a random violation instead of the leftmost one."""
    pres = engine.pres
    spots = []
    for pos in range(len(E) - 1):
        ka, kb = pres.rgen_key(E[pos]), pres.rgen_key(E[pos + 1])
        if ka > kb or (ka == kb and pres.gen_parity[E[pos].gen]):
            spots.append(pos)
    if not spots:
        return TPoly(pres, {E: pres.field.one})
    pos = rng.choice(spots)
    a, b = E[pos], E[pos + 1]
    prefix, suffix = E[:pos], E[pos + 2:]
    ab = engine.lie(TPoly(pres, {(a,): pres.field.one}),
                    TPoly(pres, {(b,): pres.field.one}))
    corr = TPoly(pres, {prefix: pres.field.one}).tensor(
        engine.nprod(ab, TPoly(pres, {suffix: pres.field.one})))
    if pres.rgen_key(a) > pres.rgen_key(b):
        swapped = prefix + (b, a) + suffix
        sign = pres.parity_sign((a,), (b,))
        return _random_strategy_mono(engine, rng, swapped).scale(sign) \
            + _random_strategy_reduce(engine, rng, corr)
    return _random_strategy_reduce(engine, rng, corr).scale(Fraction(1, 2))


def test_normal_form_is_strategy_independent(presentations, engines, reducers):
    rng = random.Random(17)
    for name in CONCRETE:
        p, e, red = presentations[name], engines[name], reducers[name]
        for _ in range(6):
            x = random_tensor(p, rng, 2, 3)
            assert _random_strategy_reduce(e, rng, x) == red.normal_order(x)


# an odd generator whose repeat has a nonzero commutator: lie(G, G) = T L
ODD_SQUARE = """
generator L parity=even degree=1;
generator G parity=odd degree=1;
bracket [G,G] = L;
"""


def test_odd_repeat_takes_half_the_commutator():
    p = parse_source(ODD_SQUARE)
    e = Engine(p)
    red = Reducer(e)
    assert red.normal_order(p.poly({p.mono("G", "G"): 1})) == \
        p.poly({p.mono(("L", 1)): Fraction(1, 2)})
    rng = random.Random(19)
    for _ in range(6):
        x = p.poly({tuple(random_rgen(p, rng) for _ in range(5)): 1})
        assert _random_strategy_reduce(e, rng, x) == red.normal_order(x)


# -- the descent monitor -----------------------------------------------------

def test_memo_entries_unchanged_by_reuse(presentations):
    rng = random.Random(18)
    for name in ("virasoro", "free_fermion", "affine_sl2"):
        p = presentations[name]
        red = Reducer(Engine(p))
        xs = [random_tensor(p, rng) for _ in range(3)]
        for x in xs:
            red.normal_order(x)
        snap = memo_terms(red.engine._memo)
        assert "no" in {k[0] for k in snap}
        for _ in range(2):
            for x in xs:
                red.normal_order(x)
                red.normal_order(x + x)
        now = memo_terms(red.engine._memo)
        for k, terms in snap.items():
            assert now[k] == terms


def test_descent_monitor_counts(virasoro):
    p = virasoro
    red = Reducer(Engine(p))
    red.normal_order(p.poly({p.mono(("L", 1), "L"): 1}))
    assert red.descent_checks == 1


def test_accepted_swaps_lower_inversions_by_one():
    # the monitor checks a swap from the pair's keys alone; the full
    # recount must agree on every swap it lets through
    rng = random.Random(31)
    for name in bundled_names():
        p = load_bundled(name)
        red = Reducer(Engine(p))
        swaps = []
        monitor = red._monitor

        def record(E, corr, swapped=None, pos=None):
            monitor(E, corr, swapped, pos)
            if swapped is not None:
                swaps.append((E, swapped))
        red._monitor = record
        for _ in range(15):
            red.normal_order(random_tensor(p, rng))
            word = [random_rgen(p, rng) for _ in range(3)]
            red.normal_order(p.poly(
                {tuple(sorted(word, key=p.rgen_key, reverse=True)): 1}))
        assert swaps, name
        for E, swapped in swaps:
            assert inversions(p, swapped) == inversions(p, E) - 1, name


# -- basis enumeration -------------------------------------------------------

def test_enumerate_basis_virasoro(virasoro):
    p = virasoro
    assert enumerate_basis(p, 0) == [()]
    assert enumerate_basis(p, 1) == []
    assert enumerate_basis(p, 2) == [p.mono("L")]
    assert enumerate_basis(p, 3) == [p.mono(("L", 1))]
    assert enumerate_basis(p, 4) == [p.mono("L", "L"), p.mono(("L", 2))]
    assert enumerate_basis(p, 6) == [
        p.mono("L", "L", "L"),
        p.mono("L", ("L", 2)),
        p.mono(("L", 1), ("L", 1)),
        p.mono(("L", 4)),
    ]
    assert enumerate_basis(p, -1) == []
    assert enumerate_basis(p, Fraction(5, 2)) == []


def test_enumerate_basis_w3(w3):
    p = w3
    assert enumerate_basis(p, 3) == [p.mono(("L", 1)), p.mono("W")]
    assert enumerate_basis(p, 5) == [
        p.mono("L", ("L", 1)),
        p.mono("L", "W"),
        p.mono(("L", 3)),
        p.mono(("W", 2)),
    ]


def test_enumerate_basis_fermion_no_repeats(free_fermion):
    f = free_fermion
    assert enumerate_basis(f, 1) == []
    assert enumerate_basis(f, 2) == [f.mono("phi", ("phi", 1))]
    for mono in enumerate_basis(f, Fraction(9, 2)):
        assert is_normally_ordered(f, mono)


def test_enumerate_basis_outputs_are_ordered(presentations):
    for name in CONCRETE:
        p = presentations[name]
        for w in range(7):
            basis = enumerate_basis(p, w)
            assert len(set(basis)) == len(basis)
            for mono in basis:
                assert is_normally_ordered(p, mono)
                assert p.mono_weight(mono) == w


def test_enumerate_basis_limits(monkeypatch, virasoro):
    with pytest.raises(WeightLimitError):
        enumerate_basis(virasoro, MAX_WEIGHT_UNITS + 1)
    # the count comes from the product formula, before any listing
    monkeypatch.setattr("nlca.pbw.MAX_BASIS_SIZE", 4)
    assert len(enumerate_basis(virasoro, 6)) == 4
    with pytest.raises(WeightLimitError) as info:
        enumerate_basis(virasoro, 8)
    assert str(info.value) == "basis at weight 8 has more than 4 monomials"


def test_basis_requires_weights():
    p = Presentation([("x", 0, 1, None)])
    p.set_bracket("x", "x", [])
    with pytest.raises(PBWError):
        enumerate_basis(p, 2)
    with pytest.raises(PBWError):
        character(p, 2)
    q = Presentation([("x", 0, 1, 0)])
    q.set_bracket("x", "x", [])
    with pytest.raises(PBWError):
        enumerate_basis(q, 2)


# -- characters --------------------------------------------------------------

def dims_by_partition_count(pres, max_weight):
    """Graded dimensions via a bounded-knapsack count over the T^n-shifted
    generator weights: even generators repeat freely, odd ones are 0/1.
    Independent of the basis enumerator."""
    scale = lcm(*(g.weight.denominator for g in pres.generators))
    top = int(Fraction(max_weight) * scale)
    series = [0] * (top + 1)
    series[0] = 1
    for g in pres.generators:
        m = int(g.weight * scale)
        while m <= top:
            if g.parity:
                for i in range(top, m - 1, -1):
                    series[i] += series[i - m]
            else:
                for i in range(m, top + 1):
                    series[i] += series[i - m]
            m += scale
    return {Fraction(i, scale): d for i, d in enumerate(series)}


def test_character_matches_partition_count(presentations):
    for name in CONCRETE:
        p = presentations[name]
        assert character(p, 6) == dims_by_partition_count(p, 6)


def test_character_virasoro_frozen(virasoro):
    got = character(virasoro, 8)
    assert [got[Fraction(w)] for w in range(9)] == [1, 0, 1, 1, 2, 2, 4, 4, 7]


def test_character_fermion_half_integer_lattice(free_fermion):
    got = character(free_fermion, 4)
    want = {
        Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 0,
        Fraction(3, 2): 1, Fraction(2): 1, Fraction(5, 2): 1,
        Fraction(3): 1, Fraction(7, 2): 1, Fraction(4): 2,
    }
    assert got == want


def test_character_w3_frozen(w3):
    got = character(w3, 6)
    assert [got[Fraction(w)] for w in range(7)] == [1, 0, 1, 2, 3, 4, 8]


# -- characters against the enumerator ---------------------------------------

def test_character_matches_enumerator_on_bundled_tables():
    for name in bundled_names():
        p = load_bundled(name)
        top = 8 if name == "affine_sl2" else 10
        got = character(p, top)
        unit = lcm(*(g.weight.denominator for g in p.generators))
        assert list(got) == [Fraction(k, unit) for k in range(top * unit + 1)]
        for w, d in got.items():
            assert d == len(enumerate_basis(p, w)), (name, w)


WEIGHTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2))


def test_character_matches_enumerator_on_random_generators():
    rng = random.Random(19)
    for _ in range(12):
        gens = [("g%d" % i, rng.randrange(2), rng.randrange(1, 4),
                 rng.choice(WEIGHTS)) for i in range(rng.randrange(1, 4))]
        p = Presentation(gens)
        got = character(p, 4)
        for w, d in got.items():
            assert d == len(enumerate_basis(p, w)), (gens, w)
        assert got == dims_by_partition_count(p, 4)


def test_character_edge_cases(virasoro):
    q = Presentation([("x", 0, 1, 0)])
    # the weights are checked first, also for a negative max_weight
    for w in (2, -1):
        with pytest.raises(PBWError,
                           match="character needs strictly positive weights"):
            character(q, w)
    assert character(virasoro, -1) == {}
    assert character(virasoro, Fraction(5, 2)) == {0: 1, 1: 0, 2: 1}


def test_character_weight_limit(virasoro, free_fermion):
    # the bound counts steps of 1/L: L = 1 for virasoro, 2 for free_fermion
    assert len(character(virasoro, MAX_WEIGHT_UNITS)) == MAX_WEIGHT_UNITS + 1
    assert len(character(free_fermion, Fraction(MAX_WEIGHT_UNITS, 2))) == \
        MAX_WEIGHT_UNITS + 1
    for p, w in ((virasoro, MAX_WEIGHT_UNITS + 1), (virasoro, 10 ** 9),
                 (free_fermion, Fraction(MAX_WEIGHT_UNITS + 1, 2))):
        with pytest.raises(PBWError):
            character(p, w)


def test_character_work_limit(affine_sl2):
    # the passes of the product formula are bounded too: one per
    # T^n-generator up to the weight, each over the whole table
    assert len(character(affine_sl2, MAX_WEIGHT_UNITS)) == MAX_WEIGHT_UNITS + 1
    many = Presentation([("g%d" % i, 0, 1, 1) for i in range(50)])
    assert character(many, 100)[Fraction(1)] == 50
    for w in (500, 1000):
        with pytest.raises(WeightLimitError, match="additions, past the limit"):
            character(many, w)
    with pytest.raises(WeightLimitError, match="additions, past the limit"):
        enumerate_basis(many, MAX_WEIGHT_UNITS)


def test_character_does_not_enumerate(monkeypatch, virasoro, affine_sl2):
    def refuse(*args):
        raise AssertionError("character enumerated the basis")

    monkeypatch.setattr("nlca.pbw.enumerate_basis", refuse)
    assert character(virasoro, 200) == dims_by_partition_count(virasoro, 200)
    assert character(affine_sl2, 40) == \
        dims_by_partition_count(affine_sl2, 40)
