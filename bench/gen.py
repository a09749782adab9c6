"""Seeded inputs for the benchmark workloads.

The benchmark draws its own inputs instead of importing the test suite's
generator, so that editing the tests cannot shift what is measured.  Every
draw comes from a `random.Random` seeded from the command line; the program
under test only ever sees the finished tensors and words.
"""

from fractions import Fraction

# The generators of each bundled table as (name, odd, degree, weight), in
# declaration order.  The reference checks order and weigh monomials with
# this table, not with the program's own Presentation.
GENERATORS = {
    "virasoro": (("L", False, 2, Fraction(2)),),
    "free_boson": (("a", False, 1, Fraction(1)),),
    "free_fermion": (("phi", True, 1, Fraction(1, 2)),),
    "affine_sl2": (("e", False, 1, Fraction(1)), ("h", False, 1, Fraction(1)),
                   ("f", False, 1, Fraction(1))),
    "w3": (("L", False, 2, Fraction(2)), ("W", False, 3, Fraction(3))),
}

# identities_warm tensors: name -> (max tensor factors, max T power).
# A round nearly exhausts the small operand space of virasoro and
# affine_sl2, while the free fields' three-factor words keep meeting new
# monomial pairs, which grows the round's memos.  With T power 1 in
# virasoro and affine_sl2 operands, round totals varied by a factor of
# three; with free-field T powers up to 4, single operations took 2 s.
TENSOR_CAPS = {
    "virasoro": (2, 0),
    "free_boson": (3, 1),
    "free_fermion": (3, 1),
    "affine_sl2": (2, 0),
}

# reduce_deep words: name -> (min factors, max factors, max T power,
# strata).  Reduction cost grows steeply with the number of out-of-order
# factor pairs (inversions), which is the depth of the swap chain, and for
# w3 with the number of W factors.  So each round reduces one word per
# stratum (inversions, count of the last generator or None for any,
# distinct T powers), with length, factors and the split of inversions
# drawn at random.  Strata whose cost spread most from word to word are
# left out, as a few of them moved a run's total by more than a host's
# drift: w3 words with two W factors and 4-5 inversions (3-390 ms), and
# free-fermion words that repeat a factor at 200-300 inversions
# (2-290 ms); affine_sl2 stops at 9 inversions.  Three w3 strata hold two
# W factors, whose bracket brings 22 + 5c into denominators.
# Free-fermion words with distinct T powers sort to a word signed by the
# parity of their inversions, odd in three strata; the others almost
# always repeat a factor and reduce to 0 after a partial sort.
WORD_SHAPES = {
    "free_boson": (25, 40, 3, tuple((k, None, False)
                                    for k in (80, 80, 80, 250, 250, 250))),
    "free_fermion": (25, 40, 47, ((51, None, True), (75, None, True),
                                  (100, None, True), (125, None, True),
                                  (100, None, False), (100, None, False))),
    "affine_sl2": (6, 8, 1, tuple((k, None, False)
                                  for k in (2, 4, 6, 7, 8, 9))),
    "virasoro": (5, 6, 3, tuple((k, None, False) for k in range(1, 7))),
    "w3": (4, 5, 1, ((2, 1, False), (4, 1, False), (6, 1, False),
                     (1, 2, False), (2, 2, False), (2, 2, False))),
}


def coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))


def factor(ngens, rng, max_t):
    """(generator index, T power) of one tensor factor."""
    return rng.randrange(ngens), rng.randrange(max_t + 1)


def word(gens, rng, lo, hi, max_t, stratum):
    """A reduce_deep word of lo..hi factors, as (generator, T power) pairs,
    drawn from one stratum of WORD_SHAPES."""
    inversions, count, distinct = stratum
    n = rng.randint(lo, hi)
    powers = rng.sample(range(max_t + 1), n) if distinct else \
        [rng.randrange(max_t + 1) for _ in range(n)]
    if count is None:
        names = [rng.randrange(len(gens)) for _ in range(n)]
    else:
        names = [len(gens) - 1] * count + [
            rng.randrange(len(gens) - 1) for _ in range(n - count)]
    return arrange(gens, rng, list(zip(names, powers)), inversions)


def key(gens, f):
    """PBW order of a factor: degree, declaration index, T power."""
    return gens[f[0]][2], f[0], f[1]


def arrange(gens, rng, factors, inversions):
    """The factors in an order with exactly `inversions` out-of-order pairs
    (fewer if the multiset has fewer strictly ordered pairs).

    Factors are inserted in PBW order; each is placed so that a chosen
    number c of strictly smaller factors follows it, which adds exactly c
    inversions.  The c are a random split of the total.
    """
    factors = sorted(factors, key=lambda f: key(gens, f))
    room = [sum(key(gens, g) < key(gens, f) for g in factors[:i])
            for i, f in enumerate(factors)]
    left, rest = min(inversions, sum(room)), sum(room)
    out = []
    for f, cap in zip(factors, room):
        rest -= cap
        c = rng.randint(max(0, left - rest), min(cap, left))
        left -= c
        pos, smaller = len(out), 0
        while smaller < c:
            pos -= 1
            smaller += key(gens, out[pos]) < key(gens, f)
        out.insert(pos, f)
    return tuple(out)


def tensor_word(ngens, rng, caps, max_factors=None, allow_empty=True,
                length=None):
    """A word of `length` factors, or by default of a random length up to
    `max_factors` (the cap's by default), at least one unless
    `allow_empty`."""
    maxf, max_t = caps
    if max_factors is None:
        max_factors = maxf
    if length is None:
        length = rng.randint(0 if allow_empty else 1, max_factors)
    return tuple(factor(ngens, rng, max_t) for _ in range(length))


def shapes(maxf, count):
    """Operand lengths (len x, len y) of `count` binary identity operations:
    every pair of lengths 0..maxf in turn, in a fixed order that starts at
    (1, 1).  A random pair of free-boson lengths moved a round's total CPU
    by 11% from seed to seed, as a few three-by-three products cost
    100-250 ms against a median of 1 ms; so every round holds the same
    lengths, and only the factors are random."""
    lengths = list(range(1, maxf + 1)) + [0]
    pairs = [(i, j) for i in lengths for j in lengths]
    return [pairs[k % len(pairs)] for k in range(count)]


def render_word(names, w):
    """Text of a word in the .nlca expression syntax, e.g. ':T^2 L W:'."""
    parts = []
    for g, n in w:
        t = "" if n == 0 else "T " if n == 1 else "T^%d " % n
        parts.append(t + names[g])
    return ":%s:" % " ".join(parts)
