"""Seeded fuzz of the rank escalation: certified ranks are true ranks.

Each block is a product B C of small random integer factors, some of its
entries then multiplied by 7, 11 or 77 so that the small primes lose rank;
its true rank comes from the plain rational elimination of the oracle
module.  A case puts 1 to 5 such blocks side by side on shuffled rows and
columns, draws 1 to 3 primes and a bound (none, a valid one, or in 15 % of
the cases a false one, below the true rank), and may attach a lying
``spare`` mask or ``mirror`` candidate.  Two more draws carry honest hints:
spare rows that are integer combinations of the others, which must leave
the certificate as it is without them, and a block beside its mirror image,
one value of which may then be changed.  Two last draws plant, around
blocks of more than _BASE rows, what the pass at the first prime takes as
sparse pivots before the dense engine: single-entry rows and columns, and
columns of weight 2 to 8 and chains that only merges take; some planted
values are multiples of 7 or 11.  The Schur round is also fuzzed alone, mod 7, on
draw_case components with planted zero residues.  The invariants:

- with no bound or a valid one, the rank is certified exact and true;
- a false bound raises InvalidInputError or returns a rank no larger than
  the bound (a modular rank that reaches a false bound is trusted by
  design);
- nothing raises anything else;
- in the last two draws, the rank mod each drawn prime is the oracle's.

The CLI half corrupts a ``--k-file`` and the lines of a rank cache: every
run exits 0, 1 or 2, a failure prints one JSON object on stderr and no
traceback, and a corrupted cache never changes stdout.
"""

import json
import random

import numpy as np

from _oracles import block_diagonal, gauss_rank_mod_p, gauss_rank_rational
from koszul.cli import main
from koszul.errors import InvalidInputError
from koszul.linalg import _BASE, DEFAULT_PRIMES, PrimeField, SparseMatrix, rank

PRIMES = (7, 11, 13, 65537, 2**31 - 1)


def draw(rng):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    r = rng.randint(0, min(nrows, ncols))
    b = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(nrows)]
    c = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(r)]
    dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    factor = rng.choice((1, 7, 11, 77))
    if factor > 1:
        if rng.random() < 0.5:
            scaled = rng.sample(range(nrows), rng.randint(1, nrows))
            dense = [[v * factor for v in row] if i in scaled else row for i, row in enumerate(dense)]
        else:
            dense = [[v * factor if rng.random() < 0.3 else v for v in row] for row in dense]
    return nrows, ncols, dense


def involution(rng, n):
    """A random involution of range(n): some disjoint transpositions."""
    image, order = list(range(n)), rng.sample(range(n), n)
    for a, b in zip(order[::2], order[1::2]):
        if rng.random() < 0.7:
            image[a], image[b] = b, a
    return np.array(image, dtype=np.int64)


def lie(rng, matrix):
    """Attach nothing, a random ``spare`` mask, or a random ``mirror`` candidate that
    passes the shape checks (involutions, signs constant on the column orbits)."""
    kind = rng.randrange(3)
    if kind == 1:
        matrix.spare = np.array([rng.random() < 0.4 for _ in range(matrix.nrows)], dtype=bool)
    elif kind == 2:
        tau = involution(rng, matrix.ncols)
        eps = np.array([rng.choice((1, -1)) for _ in range(matrix.ncols)], dtype=np.int64)
        matrix.mirror = (involution(rng, matrix.nrows), tau, np.where(tau < np.arange(matrix.ncols), eps[tau], eps))


def draw_bound(rng, true, shape):
    """None, a valid bound, or in 15 % of the cases one below the true rank."""
    if true and rng.random() < 0.15:
        return rng.randrange(true)
    return rng.choice((None, rng.randint(true, min(shape))))


def draw_case(rng, blocks):
    """(matrix, true rank, primes, bound) of one case of ``blocks`` blocks."""
    parts = [draw(rng) for _ in range(blocks)]
    true = sum(gauss_rank_rational(dense) for _, _, dense in parts)
    matrix = SparseMatrix(*block_diagonal(parts, rng))
    primes = rng.sample(PRIMES, rng.randint(1, 3))
    bound = draw_bound(rng, true, matrix.shape)
    lie(rng, matrix)
    return matrix, true, primes, bound


def check(matrix, true, primes, bound):
    """The automatic rank on one case, checked against the invariants above."""
    case = (matrix.to_dense_rows(), primes, bound)
    valid = bound is None or bound >= true
    try:
        cert = rank(matrix, None, structural_bound=bound, primes=primes)
    except InvalidInputError:  # any other exception fails the test
        assert not valid, case
        return
    if valid:
        assert cert.rank == true and cert.certified_exact, case
    else:
        assert cert.rank <= bound, case


def test_certified_rank_fuzz():
    rng = random.Random(20261018)
    for _ in range(400):
        check(*draw_case(rng, 1))


def test_block_diagonal_fuzz():
    # every deficient block is lifted and checked beside the others
    rng = random.Random(20261019)
    for _ in range(150):
        check(*draw_case(rng, rng.randint(2, 5)))


def from_dense(dense):
    return SparseMatrix(len(dense), len(dense[0]), [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v])


def outcome(matrix, primes, bound):
    """The automatic certificate as JSON, or the name of the exception it raised."""
    try:
        return rank(matrix, None, structural_bound=bound, primes=primes).to_json()
    except InvalidInputError as exc:
        return type(exc).__name__


def with_redundant_rows(rng, matrix):
    """The matrix with 1 to 4 rows put in among its own, each an integer combination of
    1 to 3 of them, and marked ``spare``: an honest mask."""
    dense = matrix.to_dense_rows()
    extra = []
    for _ in range(rng.randint(1, 4)):
        picks = rng.sample(range(len(dense)), min(len(dense), rng.randint(1, 3)))
        coef = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in picks]
        extra.append([sum(c * dense[i][j] for c, i in zip(coef, picks)) for j in range(matrix.ncols)])
    order = rng.sample(range(len(dense) + len(extra)), len(dense) + len(extra))
    out = from_dense([(dense + extra)[k] for k in order])
    out.spare = np.array([k >= len(dense) for k in order])
    return out


def test_honest_spare_rows_change_no_certificate():
    # the kernel certificate starts from the blocks without the spare rows, whose
    # reduced echelon forms are those of the full blocks: the same certificate
    rng = random.Random(20261021)
    for _ in range(150):
        matrix, true, primes, bound = draw_case(rng, rng.randint(1, 4))
        matrix = with_redundant_rows(rng, from_dense(matrix.to_dense_rows()))
        check(matrix, true, primes, bound)
        with_mask = outcome(matrix, primes, bound)
        matrix.spare = None
        assert with_mask == outcome(matrix, primes, bound), (matrix.to_dense_rows(), primes, bound)


def mirrored(rng):
    """(matrix, true rank, primes, bound): a drawn block beside its image under a mirror
    that the matrix carries (rows i <-> i + n, columns j <-> j + m, column signs equal on
    each pair).  In half of the cases one nonzero value of the first copy, whose rank its
    image takes, is then changed: the pattern keeps the symmetry, the values do not."""
    n, m, dense = draw(rng)
    dense = [row or [0] * m for row in dense]  # a rank-0 draw has empty rows
    eps = [rng.choice((1, -1)) for _ in range(m)]
    full = [row + [0] * m for row in dense] + [[0] * m + [e * v for e, v in zip(eps, row)] for row in dense]
    spots = [(i, j) for i in range(n) for j in range(m) if dense[i][j]]
    if spots and rng.random() < 0.5:
        i, j = rng.choice(spots)
        full[i][j] = rng.choice([v for v in range(-9, 10) if v not in (0, full[i][j])])
    matrix = from_dense(full)
    matrix.mirror = (np.r_[n:2 * n, 0:n], np.r_[m:2 * m, 0:m], np.array(eps + eps))
    true = gauss_rank_rational(full)
    return matrix, true, rng.sample(PRIMES, rng.randint(1, 3)), draw_bound(rng, true, matrix.shape)


def test_mirror_fuzz():
    rng = random.Random(20261022)
    for _ in range(300):
        check(*mirrored(rng))


def peelable(rng):
    """(nrows, ncols, dense): a product B C of more than _BASE rows and columns and of
    rank 1 to 9, so often short of its rows, with 1 to 5 tails planted on it.  A tail
    hangs new rows and columns off one of the block's columns (or rows) in a chain of 1
    to 4 links, so that its last column (row) holds one entry; single-entry pivots alone
    take it in as many rounds as the chain has links.  Some planted values are multiples
    of 7 or 11."""
    n, m, r = rng.randint(_BASE + 1, 12), rng.randint(_BASE + 1, 12), rng.randint(1, 9)
    b = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)] for _ in range(n)]
    c = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(m)] for _ in range(r)]
    entries = {(i, j): sum(x * y for x, y in zip(row, col)) for i, row in enumerate(b) for j, col in enumerate(zip(*c))}
    shape = [n, m]
    for _ in range(rng.randint(1, 5)):
        down = rng.random() < 0.5  # the tail ends in a column singleton, else in a row singleton
        at = rng.randrange(shape[1] if down else shape[0])
        for _ in range(rng.randint(1, 4)):
            i, j = shape  # the link's new row and column
            for spot in ((i, at) if down else (at, j), (i, j)):
                entries[spot] = rng.choice((1, -1, 2, -3)) * rng.choice((1, 1, 7, 11))
            at, shape = j if down else i, [i + 1, j + 1]
    dense = [[entries.get((i, j), 0) for j in range(shape[1])] for i in range(shape[0])]
    return shape[0], shape[1], dense


def test_peel_fuzz():
    # blocks the pass at the first prime pre-eliminates before the dense engine; a
    # pivot taken on a zero residue leaves the rank a lower bound over Q, so the rank
    # mod each drawn prime is checked too, before any hint is attached
    rng = random.Random(20261023)
    for _ in range(200):
        parts = [peelable(rng) for _ in range(rng.randint(1, 2))]
        true = sum(gauss_rank_rational(dense) for _, _, dense in parts)
        matrix = SparseMatrix(*block_diagonal(parts, rng))
        primes = rng.sample(PRIMES, rng.randint(1, 3))
        for p in primes:
            modular = sum(gauss_rank_mod_p(dense, p) for _, _, dense in parts)
            assert rank(matrix, PrimeField(p)).rank == modular, (matrix.to_dense_rows(), p)
        lie(rng, matrix)
        check(matrix, true, primes, draw_bound(rng, true, matrix.shape))


def mergeable(rng):
    """(nrows, ncols, dense): a block of more than _BASE rows and columns, either sparse
    (each entry there with probability 1/4, then 0 to 2 rows that are sums of multiples of
    two others) or a product B C of rank 1 to 9, with 1 to 5 columns of weight 2 to 8 and
    1 to 3 chains planted on it.  A chain hangs 2 to 6 links off one of the block's rows,
    each a new column on the last row and a new row, and its last row goes back to a
    column of the block, so that its rows and columns have weight 2 and only merges of
    cost 1 take it.  Some planted values are multiples of 7 or 11."""
    n, m = rng.randint(_BASE + 1, 14), rng.randint(_BASE + 1, 14)

    def value():
        return rng.choice((1, -1, 2, -3)) * rng.choice((1, 1, 7, 11))

    if rng.random() < 0.5:
        dense = [[value() if rng.random() < 0.25 else 0 for _ in range(m)] for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            (a, x), (b, y) = [(rng.randrange(len(dense)), rng.choice((1, -1, 2, 7))) for _ in range(2)]
            dense.append([x * u + y * v for u, v in zip(dense[a], dense[b])])
    else:
        r = rng.randint(1, 9)
        b = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)] for _ in range(n)]
        c = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(m)] for _ in range(r)]
        dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    shape = [len(dense), m]
    for _ in range(rng.randint(1, 5)):
        for i in rng.sample(range(shape[0]), min(shape[0], rng.randint(2, 8))):
            entries[i, shape[1]] = value()
        shape[1] += 1
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(shape[0])
        for _ in range(rng.randint(2, 6)):
            i, j = shape  # the link's new row and column
            entries[at, j], entries[i, j] = value(), value()
            at, shape = i, [i + 1, j + 1]
        entries[at, rng.randrange(m)] = value()
    dense = [[entries.get((i, j), 0) for j in range(shape[1])] for i in range(shape[0])]
    return shape[0], shape[1], dense


def test_merge_fuzz():
    # blocks the pass at the first prime pre-eliminates with merges as well as single
    # entries; a pivot on a zero residue or two conflicting pivots in one round change
    # the rank mod p, so it is checked against the oracle before any hint is attached
    rng = random.Random(20261024)
    for _ in range(200):
        parts = [mergeable(rng) for _ in range(rng.randint(1, 2))]
        true = sum(gauss_rank_rational(dense) for _, _, dense in parts)
        matrix = SparseMatrix(*block_diagonal(parts, rng))
        primes = rng.sample(PRIMES, rng.randint(1, 3))
        for p in primes:
            modular = sum(gauss_rank_mod_p(dense, p) for _, _, dense in parts)
            assert rank(matrix, PrimeField(p)).rank == modular, (matrix.to_dense_rows(), p)
        lie(rng, matrix)
        check(matrix, true, primes, draw_bound(rng, true, matrix.shape))


def test_schur_round_fuzz(monkeypatch):
    # the Schur round alone, mod 7, on the components of draw_case blocks, some entries
    # then made multiples of 7 (zero residues, never pivots) and some taken out (so that
    # pivots depend on pivots), and some components left unmarked; in each component the
    # pivots it takes plus the rank mod 7 of what it leaves there are the component's rank
    # mod 7, also under depth caps low enough to send pivots back to the complement
    import koszul.linalg as linalg
    from koszul.linalg import _components, _schur

    rng, p = random.Random(20261027), 7
    for _ in range(300):
        matrix = draw_case(rng, rng.randint(1, 5))[0]
        entries = [(r, c, v * rng.choice((1, 1, 7))) for r, c, v in zip(matrix.rows.tolist(), matrix.cols.tolist(),
                                                                   matrix.value_list()) if rng.random() < 0.8]
        # and 0 to 2 full rows, which join the blocks and fill the complement beyond the
        # round's input, so that it is summed in chunks
        extra = rng.choice((0, 0, 1, 2))
        entries += [(matrix.nrows + i, c, rng.choice((1, -1, 2, 7))) for i in range(extra) for c in range(matrix.ncols)]
        if not entries:
            continue
        planted = SparseMatrix(matrix.nrows + extra, matrix.ncols, entries)
        comp = _components(planted.rows, planted.cols, planted.nrows)
        owner = np.zeros(planted.nrows, dtype=np.int64)
        owner[planted.rows] = comp
        big = np.array([rng.random() < 0.8 for _ in range(int(comp.max()) + 1)])
        monkeypatch.setattr(linalg, "_ROUNDS", rng.choice((1, 2, 3, 64)))
        (rows, cols, res), taken = _schur(planted.rows, planted.cols, planted.residues(p), owner, big, p)
        assert ((res >= 0) & (res < p)).all()
        for k in range(big.size):
            if not big[k]:
                assert taken[k] == 0
            here, there = owner[planted.rows] == k, owner[rows] == k
            index = {r: i for i, r in enumerate(sorted(set(planted.rows[here].tolist())))}
            place = {c: j for j, c in enumerate(sorted(set(planted.cols[here].tolist())))}
            full, left = ([[0] * len(place) for _ in index] for _ in range(2))
            for r, c, v in zip(planted.rows[here].tolist(), planted.cols[here].tolist(), planted.residues(p)[here].tolist()):
                full[index[r]][place[c]] = v
            for r, c, v in zip(rows[there].tolist(), cols[there].tolist(), res[there].tolist()):
                left[index[r]][place[c]] = v
            assert taken[k] + gauss_rank_mod_p(left, p) == gauss_rank_mod_p(full, p), (full, taken[k], left)


def test_projected_start_cases():
    # a spare row that is no combination of the other: the block without it has full
    # row rank, yet its vector must be checked against the full block and, failing,
    # the full rows eliminated with no guard; rank 2, kernel-verified
    lying = from_dense([[1, 1], [0, 1]])
    lying.spare = np.array([False, True])
    # a spare row that narrows a 3x2 block, whose full block is its transpose, to 2x2:
    # that block's vector (-1, 1), read in the columns of the full block, would pass
    narrowed = from_dense([[1, 1], [1, 1], [1, 0]])
    narrowed.spare = np.array([False, False, True])
    for matrix in (lying, narrowed):
        cert = rank(matrix, None)
        assert cert.mode == "kernel-verified" and cert.rank == 2, matrix.to_dense_rows()


def test_fuzz_found_cases():
    # rank 2 with column 1 = column 0 + 13 w: pivot columns {0, 2} mod 13 and
    # {0, 1} over Q, so a later prime's earlier set becomes the reference
    u, w = [1, 2, -1, 3, 0, 1, 2, -2], [2, -1, 1, 0, 3, -2, 1, 1]
    mix = [(1, 0), (1, 13), (0, 1), (2, 3), (-1, 4), (3, -2), (1, 1), (2, -5)]
    spread = [[a * u[i] + b * w[i] for a, b in mix] for i in range(8)]
    # rank 1, every entry divisible by 7: a later prime's larger rank is kept
    sevens = [[7 * x * y for y in (1, -2, 3, 1, 4, -1, 2, 5, -3)] for x in (1, 2, -1)]
    # rank 2, row 0 = 7 row 2, entries near 10^12: mod 7 the pivot rows come in
    # another order than mod the later primes, but the pivot set is the same,
    # so the residues join by CRT
    big = 10**12 + 39
    reordered = [[0, 7, 7 * big], [1, 0, 3 * 10**11 + 7], [0, 1, big]]
    for dense, prime, true in ((spread, 13, 2), (sevens, 7, 1), (reordered, 7, 2)):
        assert gauss_rank_rational(dense) == true
        cert = rank(from_dense(dense), None, primes=[prime])
        assert cert.mode == "kernel-verified" and cert.rank == true, dense
        assert cert.primes[:2] == (prime, DEFAULT_PRIMES[0])


# the hyperplane K with K-perp = <e0^e1> at n = 5, in a basis with denominators:
# dim W_q = q + 1, kernel-verified from q = 1 on
K_FILE = {"n": 5, "field": "rational", "basis": [
    [{"pair": [0, 2], "num": 1}, {"pair": [1, 2], "num": -1, "den": 2}],
    [{"pair": [0, 3], "num": 3}], [{"pair": [0, 4], "num": 1}], [{"pair": [1, 2], "num": 2, "den": 3}],
    [{"pair": [1, 3], "num": 1}], [{"pair": [1, 4], "num": -1}],
    [{"pair": [2, 3], "num": 1}, {"pair": [3, 4], "num": 7, "den": 3}],
    [{"pair": [2, 4], "num": 1}], [{"pair": [3, 4], "num": 1}],
]}
BAD_VALUES = (1.5, 2.0, True, False, "1", "x", None)


def flip_bits(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def bad_k_file(rng) -> bytes:
    """K_FILE truncated, with flipped bits, or with a non-integer value in n, a pair,
    num, den, the field or the basis."""
    kind = rng.randrange(3)
    text = json.dumps(K_FILE).encode()
    if kind == 0:
        return text[:rng.randrange(len(text))]
    if kind == 1:
        return flip_bits(rng, text)
    data = json.loads(text)
    entry = rng.choice(rng.choice(data["basis"]))
    bad, where = rng.choice(BAD_VALUES), rng.choice(("n", "pair", "index", "num", "den", "field", "prime", "basis"))
    if where in ("n", "field", "basis"):
        data[where] = bad
    elif where == "prime":
        data["field"] = {"prime": bad}
    elif where == "index":
        entry["pair"][rng.randrange(2)] = bad
    else:
        entry[where] = bad
    return json.dumps(data).encode()


def bad_cache(rng, data: bytes) -> bytes:
    """The cache file truncated, with flipped bits, or one record's rank moved or
    its line dropped or doubled."""
    kind = rng.randrange(4)
    if kind == 0:
        return data[:rng.randrange(len(data))]
    if kind == 1:
        return flip_bits(rng, data)
    lines = data.split(b"\n")
    i = rng.choice([k for k, line in enumerate(lines) if line])
    if kind == 2:  # the digest still signs the old rank
        record = json.loads(lines[i])
        record["cert"]["rank"] += rng.choice((-1, 1))
        lines[i] = json.dumps(record, sort_keys=True).encode()
    else:
        lines[i:i + 1] = rng.choice(([], [lines[i]] * 2))
    return b"\n".join(lines)


def test_cli_corruption_fuzz(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        if code:
            assert out == "" and len(err.splitlines()) == 1 and isinstance(json.loads(err), dict), argv
        else:
            assert err == "", argv
        return code, out

    rng = random.Random(20261020)
    k_file = tmp_path / "k.json"
    for _ in range(60):
        k_file.write_bytes(bad_k_file(rng))
        run(["hilbert", "--k-file", str(k_file), "--q-max", "2", "--format", "json"])
    # a cache of kernel-verified records (auto keys) and single-prime ones (a forced field's key)
    cache = tmp_path / "cache"
    k_file.write_text(json.dumps(K_FILE))
    commands = [["hilbert", "--k-file", str(k_file), "--format", "json", "--cache", str(cache), *extra]
                for extra in ([], ["--field", "prime", "--primes", "65537,7"])]
    cold = [run(argv) for argv in commands]
    assert [code for code, _ in cold] == [0, 0]
    path = cache / "rank-cache.jsonl"
    clean = path.read_bytes()
    assert clean.count(b'"kernel-verified"') == 2 and clean.count(b';prime:65537"') == 3
    for _ in range(60):
        path.write_bytes(bad_cache(rng, clean))
        which = rng.randrange(2)
        assert run(commands[which]) == cold[which]
