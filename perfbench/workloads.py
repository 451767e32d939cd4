"""The four workloads: inputs made from a seed, the calls of one pass, and
the check of each answer.

Every workload is a closed loop in one process: the next call starts when
the previous one returns.  ``koszul`` is imported inside :meth:`build`, so
that set-up time covers importing the program.

An operation is one profile degree, one ``w_dim`` call, one resonance
verdict or one CLI call.  A pass always attempts the same operations, so
the share of failed operations does not depend on how many passes a run
makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import checks


class Call:
    """One timed call into the program and the check of what it returned.

    ``run()`` is the only thing timed.  ``check(result)`` runs after the
    clock stops and returns one status per operation.
    """

    def __init__(self, label: str, kind: str, run, check, ops: int):
        self.label = label
        self.kind = kind  # "cold" or "warm"
        self.run = run
        self.check = check
        self.ops = ops  # operations the call stands for (its failure count)

    def outcome(self, result, error) -> list[str]:
        if error is not None:
            return [checks.FAILED] * self.ops
        statuses = self.check(result)
        if len(statuses) != self.ops:
            return [checks.WRONG] * self.ops
        return statuses


def _profile_check(q_max: int, expected_dim, expected_vanishing):
    """One status per degree; all WRONG if the profile's shape or its
    vanishing degree disagrees."""

    def check(profile):
        degrees = [r.q for r in profile.records]
        if degrees != list(range(q_max + 1)) or profile.vanishing_degree != expected_vanishing:
            return [checks.WRONG] * (q_max + 1)
        return [checks.check_degree(expected_dim(r.q), r.dim, r.certified) for r in profile.records]

    return check


class WeymanProfile:
    """``hilbert_profile(weyman_K(n))``: n = 8 in full, n = 9 through q = 5.

    At n = 9, q = 5 the matrix splits into 75 components, 52 of them on the
    sparse Markowitz path and the rest through the dense panel and GEMM
    path, so this pass exercises the component split, the grading and the
    dense engine.  The rational oracle and the rank cache stay idle.
    Weyman's K is fixed, so the inputs do not depend on the seed.
    """

    name = "weyman-profile"
    parts = ((8, 5), (9, 5))  # (n, q_max)

    def build(self, seed: int):
        import koszul.subspaces

        return [(n, q_max, koszul.subspaces.weyman_K(n)) for n, q_max in self.parts]

    def calls(self, inputs, index: int, workdir: str) -> list[Call]:
        import koszul.hilbert

        kind = "cold" if index == 0 else "warm"
        out = []
        for n, q_max, K in inputs:
            out.append(
                Call(
                    f"hilbert_profile(weyman_K({n}), q_max={q_max})",
                    kind,
                    lambda K=K, q_max=q_max: koszul.hilbert.hilbert_profile(K, q_max=q_max),
                    _profile_check(
                        q_max,
                        lambda q, n=n: checks.weyman_dim(n, q),
                        checks.weyman_vanishing(n, q_max),
                    ),
                    q_max + 1,
                )
            )
        return out


class RandomDense:
    """The top degree ``w_dim(random_K(7, 11, s), 4)`` for a few seeds s.

    Each matrix is a single 3234x2310 component with 50,820 nonzeros, so
    almost all of the time goes to the dense elimination kernel.  A random
    K has no torus grading.  The seeds s are drawn from the benchmark's
    seed; a pass takes one of the subspaces, in turn, so that a run has
    several short passes rather than two long ones.
    """

    name = "random-dense"
    n, m, q = 7, 11, 4
    subspaces = 3

    def build(self, seed: int):
        import koszul.subspaces

        rng = random.Random(seed)
        seeds = [rng.randrange(1, 2**31) for _ in range(self.subspaces)]
        return [(s, koszul.subspaces.random_K(self.n, self.m, s)) for s in seeds]

    def calls(self, inputs, index: int, workdir: str) -> list[Call]:
        import koszul.hilbert

        kind = "cold" if index == 0 else "warm"

        def check(res):
            return [checks.check_degree(0, res.dim, res.certified)]

        s, K = inputs[index % len(inputs)]
        return [
            Call(
                f"w_dim(random_K({self.n}, {self.m}, {s}), {self.q})",
                kind,
                lambda: koszul.hilbert.w_dim(K, self.q),
                check,
                1,
            )
        ]


def hyperplane_K(n: int):
    """The hyperplane K whose annihilator K-perp is spanned by e0^e1."""
    from math import comb

    import koszul.bases
    import koszul.subspaces

    width = comb(n, 2)
    skip = koszul.bases.pair_rank(0, 1)
    rows = [[int(i == j) for i in range(width)] for j in range(width) if j != skip]
    return koszul.subspaces.subspace_from_rows(n, rows)


class Nonvanishing:
    """A K whose resonance does not vanish: the hyperplane with K-perp = <e0^e1>.

    The n = 6 profile spends most of its time in the rational oracle after
    three modular eliminations that certify nothing; the n = 7 calls are
    the two operations known to fail (see the README): ``w_dim(K7, 4)``
    returns the right dimension uncertified, and ``resonance_vanishes(K7)``
    reports heuristic although it attaches a lifted rational witness.
    The inputs do not depend on the seed.
    """

    name = "nonvanishing"

    def build(self, seed: int):
        return hyperplane_K(6), hyperplane_K(7)

    def calls(self, inputs, index: int, workdir: str) -> list[Call]:
        import koszul.hilbert
        import koszul.resonance

        K6, K7 = inputs
        kind = "cold" if index == 0 else "warm"

        def check_w(res):
            return [checks.check_degree(checks.pencil_dim(4), res.dim, res.certified)]

        def check_verdict(v):
            witness = None if v.witness is None else (v.witness.a, v.witness.b)
            return [checks.check_verdict(v.vanishes, v.heuristic, witness)]

        return [
            Call(
                "hilbert_profile(K6)",
                kind,
                lambda: koszul.hilbert.hilbert_profile(K6),
                _profile_check(3, checks.pencil_dim, None),
                4,
            ),
            Call("w_dim(K7, 4)", kind, lambda: koszul.hilbert.w_dim(K7, 4), check_w, 1),
            Call(
                "resonance_vanishes(K7)",
                kind,
                lambda: koszul.resonance.resonance_vanishes(K7),
                check_verdict,
                1,
            ),
        ]


class CliCache:
    """``koszul hilbert --weyman 8 --format json --cache DIR`` through
    ``koszul.cli.main``.

    A pass is one cold call (fresh cache directory, ``--threads 2``, so the
    degree-level pool runs and the cache is written) and then
    ``warm_repeats`` calls with the default thread count that only read the
    cache.  Only this workload exercises cache writes and reads, key
    hashing, CLI formatting and the thread pool.  The inputs do not depend
    on the seed.
    """

    name = "cli-cache"
    n = 8
    warm_repeats = 10  # warm_s is one warm call: the mean of a pass's warm calls

    def __init__(self):
        self.reference: str | None = None  # stdout of the run's first call
        self.counters: dict[str, int] = {}

    def build(self, seed: int):
        import koszul.cli  # noqa: F401  (the CLI parses its own input)

        return None

    def _invoke(self, argv):
        import koszul.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = koszul.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def calls(self, inputs, index: int, workdir: str) -> list[Call]:
        cache_dir = os.path.join(workdir, f"cache-{index}")
        cache_file = os.path.join(cache_dir, "rank-cache.jsonl")
        argv = ["hilbert", "--weyman", str(self.n), "--format", "json", "--cache", cache_dir]
        self.counters = {"cli.stdout_bytes": 0, "linalg.cache_bytes": 0}

        def check(result, cold: bool):
            code, stdout, stderr = result
            size = os.path.getsize(cache_file) if os.path.exists(cache_file) else 0
            if cold:
                self.counters["linalg.cache_bytes"] = size
            self.counters["cli.stdout_bytes"] += len(stdout.encode())
            if code != 0 or stderr:
                return [checks.FAILED]
            if self.reference is None:
                self.reference = stdout
            if not checks.check_cache_size(self.counters["linalg.cache_bytes"], size):
                return [checks.WRONG]
            return [checks.check_cli_stdout(stdout, self.reference, self.n)]

        calls = [
            Call(
                "koszul hilbert (cold, --threads 2)",
                "cold",
                lambda: self._invoke(argv + ["--threads", "2"]),
                lambda r: check(r, True),
                1,
            )
        ]
        calls += [
            Call(
                "koszul hilbert (warm)",
                "warm",
                lambda: self._invoke(argv),
                lambda r: check(r, False),
                1,
            )
            for _ in range(self.warm_repeats)
        ]
        return calls


WORKLOADS = {w.name: w for w in (WeymanProfile, RandomDense, Nonvanishing, CliCache)}

