"""Command-line surface: profiles, resonance verdicts, group reports.

Exit codes: 0 on success, 1 on computational or resource failure, 2 on
invalid input.  Errors are emitted as one JSON object on stderr.  Output
is byte-identical for identical (argv, environment, seed) regardless of
thread count.

Configuration precedence: flags override the environment variables
KOSZUL_PRIMES (comma-separated modular primes) and KOSZUL_CACHE (cache
directory), which override the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .errors import InvalidInputError, KoszulError, ResourceLimitError
from .groups import (
    arrangement_chen,
    bounds_from_b1,
    chen_free,
    preset_group_invariants,
)
from .hilbert import (
    KoszulProfile,
    hilbert_profile,
    verify_im_delta2_dim,
    w_dim,
    w_dim_alt,
)
from .linalg import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_PRIMES,
    PrimeField,
    RankCache,
    Rational,
)
from .resonance import resonance_vanishes, wedge_square
from .subspaces import (
    SubspaceK,
    canonicalize,
    full_K,
    heisenberg_K,
    heisenberg_symplectic_form,
    random_K,
    subspace_from_rows,
    weyman_K,
    zero_K,
)

ENV_PRIMES = "KOSZUL_PRIMES"
ENV_CACHE = "KOSZUL_CACHE"


class _Parser(argparse.ArgumentParser):
    """argparse with the structured-JSON error contract (exit code 2)."""

    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; anything else is invalid input."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidInputError(f"{what} must be comma-separated integers, got {text!r}") from None


@dataclass
class RunConfig:
    primes: tuple[int, ...]
    q_max: int | None
    fmt: str
    cache_dir: str | None
    oracle_cap: int
    field: str  # "auto" | "rational" | "prime"

    @staticmethod
    def from_args(args) -> "RunConfig":
        if getattr(args, "primes", None) is not None:
            primes = tuple(_int_list(args.primes, "--primes"))
        elif os.environ.get(ENV_PRIMES):
            primes = tuple(_int_list(os.environ[ENV_PRIMES], ENV_PRIMES))
        else:
            primes = DEFAULT_PRIMES
        if not primes:
            raise InvalidInputError("empty prime list")
        for p in primes:
            PrimeField(p)  # validates primality and word size
        cache_dir = getattr(args, "cache", None) or os.environ.get(ENV_CACHE) or None
        if getattr(args, "threads", 1) < 1:
            raise InvalidInputError("threads must be >= 1")
        return RunConfig(
            primes=primes,
            q_max=getattr(args, "q_max", None),
            fmt=getattr(args, "format", "table"),
            cache_dir=cache_dir,
            oracle_cap=getattr(args, "oracle_cap", DEFAULT_ORACLE_CAP),
            field=getattr(args, "field", "auto"),
        )

    def cache(self) -> RankCache | None:
        return RankCache(self.cache_dir) if self.cache_dir else None

    def fieldspec(self):
        if self.field == "rational":
            return Rational()
        if self.field == "prime":
            return PrimeField(self.primes[0])
        return None


def _add_common(parser):
    parser.add_argument("--primes", help="comma-separated modular primes")
    parser.add_argument("--threads", type=int, default=1,
                        help="kept for compatibility, must be >= 1; the output never depends on it")
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--cache", help="cache directory for rank certificates")
    parser.add_argument("--oracle-cap", dest="oracle_cap", type=int, default=DEFAULT_ORACLE_CAP)
    parser.add_argument(
        "--field",
        choices=("auto", "rational", "prime"),
        default="auto",
        help="force the computation field (default: modular with rational fallback)",
    )


def _add_k_source(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--k-file", help="subspace JSON file")
    src.add_argument("--weyman", type=int, metavar="N")
    src.add_argument("--heisenberg", type=int, metavar="K")
    src.add_argument("--zero", type=int, metavar="N")
    src.add_argument("--full", type=int, metavar="N")
    src.add_argument("--random", nargs=3, type=int, metavar=("N", "M", "SEED"))


def _load_subspace(args, config: RunConfig) -> SubspaceK:
    if args.k_file:
        with open(args.k_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise InvalidInputError(f"--k-file is not valid JSON: {exc}") from None
        return SubspaceK.from_json(data)
    if args.weyman is not None:
        return weyman_K(args.weyman)
    if args.heisenberg is not None:
        return heisenberg_K(args.heisenberg)
    if args.zero is not None:
        return zero_K(args.zero)
    if args.full is not None:
        return full_K(args.full)
    n, m, seed = args.random
    fieldspec = PrimeField(config.primes[0]) if config.field == "prime" else Rational()
    return random_K(n, m, seed, fieldspec)


def _print_profile_table(profile: KoszulProfile, out):
    print(
        f"Koszul module dimensions: n={profile.n}, m={profile.m}, field={profile.field}",
        file=out,
    )
    if profile.model_only:
        print("  (prime-field model: complex-geometric readings do not apply)", file=out)
    print("  q  dim_Wq  bound  certified", file=out)
    for record in profile.records:
        if profile.vanishing_degree is not None and record.q > profile.vanishing_degree:
            continue
        bound = "-" if record.bound is None else str(record.bound)
        flag = "yes" if record.certified else "no"
        print(f"  {record.q}  {record.dim}  {bound}  {flag}", file=out)
    if profile.vanishing_degree is not None:
        print(
            f"  dim_Wq = 0 for all q >= {profile.vanishing_degree} (certified)",
            file=out,
        )
    else:
        print("  no certified vanishing in the computed range", file=out)


def _print_profile_csv(profile: KoszulProfile, out):
    print("q,dim_Wq,bound,certified", file=out)
    for record in profile.records:
        bound = "" if record.bound is None else record.bound
        print(f"{record.q},{record.dim},{bound},{str(record.certified).lower()}", file=out)


def cmd_hilbert(args) -> int:
    config = RunConfig.from_args(args)
    subspace = _load_subspace(args, config)
    profile = hilbert_profile(
        subspace,
        q_max=config.q_max,
        fieldspec=config.fieldspec(),
        primes=config.primes,
        oracle_cap=config.oracle_cap,
        cache=config.cache(),
    )
    if config.fmt == "json":
        print(json.dumps(profile.to_json(), indent=2, sort_keys=True))
    elif config.fmt == "csv":
        _print_profile_csv(profile, sys.stdout)
    else:
        _print_profile_table(profile, sys.stdout)
    return 0


def cmd_resonance(args) -> int:
    config = RunConfig.from_args(args)
    subspace = _load_subspace(args, config)
    verdict = resonance_vanishes(
        subspace,
        primes=config.primes,
        oracle_cap=config.oracle_cap,
        cache=config.cache(),
    )
    if config.fmt == "json":
        print(json.dumps(verdict.to_json(), indent=2, sort_keys=True))
    elif config.fmt == "csv":
        print("n,m,vanishes,dim,heuristic,model_only")
        print(
            f"{verdict.n},{verdict.m},{str(verdict.vanishes).lower()},"
            f"{verdict.dim},{str(verdict.heuristic).lower()},{str(verdict.model_only).lower()}"
        )
    else:
        print(f"Resonance decision: n={verdict.n}, m={verdict.m}")
        certainty = "heuristic" if verdict.heuristic else "certified"
        state = "vanishes" if verdict.vanishes else "does not vanish"
        print(f"  resonance {state} ({certainty}, via dim W_{verdict.degree} = {verdict.dim})")
        cert = verdict.certificate
        provenance = cert.mode if not cert.primes else f"{cert.mode} {list(cert.primes)}"
        print(f"  certificate: rank {cert.rank}, {provenance}")
        if verdict.model_only:
            print("  (prime-field model: complex-geometric readings do not apply)")
        if verdict.witness is not None:
            w = verdict.witness.to_json()
            print(f"  witness covectors: a={w['a']} b={w['b']} over {w['field']}")
    return 0


def cmd_group(args) -> int:
    config = RunConfig.from_args(args)
    if args.b1 is not None:
        report = bounds_from_b1(args.b1)
        return _emit_report(report, config)
    if args.preset in ("torelli", "out-free", "kahler", "heisenberg"):
        key = args.preset.replace("-", "_")
        param = {
            "torelli": args.g,
            "out_free": args.g,
            "kahler": args.q_x,
            "heisenberg": args.k,
        }[key]
        if param is None:
            raise InvalidInputError(f"preset {args.preset} needs its parameter flag")
        report = preset_group_invariants(key, param)
        return _emit_report(report, config)
    q_max = config.q_max if config.q_max is not None else 8
    if args.preset == "free":
        if args.n is None:
            raise InvalidInputError("preset free needs --n")
        table = [(q, chen_free(args.n, q)) for q in range(1, q_max + 1)]
        payload = {"name": "free", "n": args.n}
        title = f"Chen ranks of the free group on {args.n} generators"
    elif args.preset == "arrangement":
        if args.h is None:
            raise InvalidInputError("preset arrangement needs --h")
        counts = _int_list(args.h, "--h")
        q_range = [args.q] if args.q is not None else range(2, q_max + 1)
        table = [(q, arrangement_chen(counts, q)) for q in q_range]
        payload = {"name": "arrangement", "h": counts, "validity": "q >> 0 only"}
        title = f"Arrangement Chen ranks for h = {counts} (valid for q >> 0)"
    else:
        raise InvalidInputError("group needs --preset or --b1")
    payload["chen_ranks"] = [[q, v] for q, v in table]
    if config.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("q,theta_q" if config.fmt == "csv" else title)
        for q, v in table:
            print(f"{q},{v}" if config.fmt == "csv" else f"  theta_{q} = {v}")
    return 0


_TABLE_LIMIT = 16


def _emit_report(report, config: RunConfig) -> int:
    if config.fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    if config.fmt == "csv":
        print("field,value,conditions")
        cond = report.condition_map()
        for name in (
            "b1",
            "chen_vanish_degree",
            "w_vanish_degree",
            "vnc_bound",
            "alexander_stabilization_degree",
            "growth_bound",
        ):
            tags = "; ".join(cond.get(name, ()))
            print(f'{name},{getattr(report, name)},"{tags}"')
        for q, v in report.chen_upper_bounds:
            print(f'chen_upper_bound[{q}],{v},"{"; ".join(cond.get("chen_upper_bounds", ()))}"')
        return 0
    title = report.name if report.parameter is None else f"{report.name}({report.parameter})"
    print(f"Group invariant bounds: {title}")
    print(f"  b1 = {report.b1}")
    cond = report.condition_map()

    def line(label, field):
        tags = cond.get(field, ())
        suffix = f"   [{'; '.join(tags)}]" if tags else ""
        print(f"  {label} {getattr(report, field)}{suffix}")

    line("theta_q = 0 for q >=", "chen_vanish_degree")
    line("W_q = 0 for q >=", "w_vanish_degree")
    line("vnc(G/G'') <=", "vnc_bound")
    line("Alexander filtration stabilizes at", "alexander_stabilization_degree")
    line("growth degree d(G/G'') <=", "growth_bound")
    if report.chen_upper_bounds:
        tags = cond.get("chen_upper_bounds", ())
        print(f"  Chen rank bounds [{'; '.join(tags)}]:")
        for q, v in report.chen_upper_bounds[:_TABLE_LIMIT]:
            print(f"    theta_{q} <= {v}")
        hidden = len(report.chen_upper_bounds) - _TABLE_LIMIT
        if hidden > 0:
            print(f"    ... ({hidden} more rows; use --format csv or json)")
    for note in report.notes:
        print(f"  note: {note}")
    return 0


def _selfcheck_cases():
    """The embedded invariant suite; yields (name, callable) pairs."""
    from math import comb as _comb

    from .hilbert import hilbert_bound, koszul_differential

    def complexes():
        for n in range(2, 6):
            for q in range(0, 4):
                d2 = koszul_differential(2, n, q)
                d1 = koszul_differential(1, n, q + 1)
                assert d1.multiply(d2).nnz == 0, (n, q)
                if n >= 3:
                    d3 = koszul_differential(3, n, q)
                    assert koszul_differential(2, n, q + 1).multiply(d3).nnz == 0, (n, q)

    def image_dims():
        for n in range(2, 6):
            for q in range(0, 3):
                verify_im_delta2_dim(n, q)

    def dual_constructions():
        for seed in range(8):
            n = 3 + seed % 3
            m = (seed * 2) % (_comb(n, 2) + 1)
            K = random_K(n, m, seed)
            q = seed % 3
            assert w_dim_alt(K, q, Rational()) == w_dim(K, q, Rational()).dim, seed

    def canonical_idempotence():
        for seed in range(8):
            K = random_K(4, 3, seed + 50)
            assert canonicalize(K) == K, seed

    def identity_chen_vs_bound():
        from .groups import chen_upper_bound

        for n in range(3, 11):
            for q in range(2, n - 1):
                assert chen_upper_bound(n, q) == hilbert_bound(n, q - 2), (n, q)

    def identity_growth():
        for n in range(3, 11):
            total = n + sum((q + 2) * hilbert_bound(n, q) for q in range(0, max(n - 3, 0)))
            assert bounds_from_b1(n).growth_bound == total, n

    def borderline_profiles():
        for n in (4, 5, 6):
            prof = hilbert_profile(weyman_K(n))
            assert prof.vanishing_degree == n - 3, n
            assert prof.dims() == [hilbert_bound(n, q) for q in range(n - 2)], n

    def heisenberg_vanishing():
        for k in (2, 3):
            prof = hilbert_profile(heisenberg_K(k), q_max=1)
            assert prof.dims() == [1, 0], k
            omega = heisenberg_symplectic_form(k)
            assert any(wedge_square(omega, 2 * k)), k

    def kernel_certificates():
        from .bases import pair_rank
        from .hilbert import restricted_delta2
        from .linalg import annihilates, nullspace

        # hyperplane K with K-perp = <e0^e1>: resonance does not vanish and
        # dim W_q = q + 1; every rank-deficient degree is kernel-certified
        n, width, skip = 6, _comb(6, 2), pair_rank(0, 1)
        K = subspace_from_rows(n, [[int(i == j) for i in range(width)] for j in range(width) if j != skip])
        prof = hilbert_profile(K)
        assert prof.dims() == [q + 1 for q in range(n - 2)], prof.dims()
        assert all(r.certified for r in prof.records)
        assert [r.certificate.mode for r in prof.records[1:]] == ["kernel-verified"] * (n - 3)
        # the exact check behind the certificate refuses a tampered vector
        matrix = restricted_delta2(K, 1)
        kernel = nullspace(matrix, Rational())
        assert kernel and annihilates(matrix, kernel)
        kernel[0][0] += 1  # column 0 is nonzero
        assert not annihilates(matrix, kernel)

    def mirrored_ranks():
        from .hilbert import im_delta2_dim, restricted_delta2
        from .linalg import rank

        # Weyman's K is stable under the index reversal, so the engine ranks
        # one block of each mirrored pair without the spare rows; the full
        # elimination must agree
        field = PrimeField(DEFAULT_PRIMES[0])
        for q in range(4):
            matrix = restricted_delta2(weyman_K(6), q)
            assert matrix.mirror is not None, q
            mirrored = rank(matrix, field).rank
            matrix.mirror = matrix.spare = None
            assert mirrored == rank(matrix, field).rank == im_delta2_dim(6, q) - hilbert_bound(6, q), q

    def degree_zero_anchor():
        for seed in range(6):
            n = 4 + seed % 2
            m = seed % (_comb(n, 2) + 1)
            K = random_K(n, m, seed + 99)
            assert w_dim(K, 0).dim == _comb(n, 2) - m, seed

    return [
        ("koszul complex (d1 d2 = 0, d2 d3 = 0)", complexes),
        ("image dimensions match closed form", image_dims),
        ("dual constructions agree", dual_constructions),
        ("canonicalization idempotent", canonical_idempotence),
        ("Chen bound = shifted Hilbert bound", identity_chen_vs_bound),
        ("growth bound summation identity", identity_growth),
        ("borderline profiles attain the bound", borderline_profiles),
        ("Heisenberg vanishing and wedge-square", heisenberg_vanishing),
        ("degree-zero anchor", degree_zero_anchor),
        ("kernel certificates (hyperplane K, n=6)", kernel_certificates),
        ("mirrored blocks (Weyman K, n=6)", mirrored_ranks),
    ]


def cmd_selfcheck(_args) -> int:
    passed = failed = 0
    for name, case in _selfcheck_cases():
        try:
            case()
        except Exception as exc:  # report and continue
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            passed += 1
            print(f"ok   {name}")
    print(f"selfcheck: {passed} passed, {failed} failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="koszul", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("hilbert", help="graded dimensions of W(V,K)")
    _add_k_source(p_h)
    p_h.add_argument("--q-max", dest="q_max", type=int)
    _add_common(p_h)
    p_h.set_defaults(func=cmd_hilbert)

    p_r = sub.add_parser("resonance", help="decide resonance vanishing")
    _add_k_source(p_r)
    _add_common(p_r)
    p_r.set_defaults(func=cmd_resonance)

    p_g = sub.add_parser("group", help="group invariant bounds and Chen tables")
    p_g.add_argument(
        "--preset",
        choices=("torelli", "out-free", "kahler", "heisenberg", "free", "arrangement"),
    )
    p_g.add_argument("--b1", type=int)
    p_g.add_argument("--g", type=int, help="genus / rank parameter")
    p_g.add_argument("--q-x", dest="q_x", type=int, help="irregularity q(X)")
    p_g.add_argument("--k", type=int, help="Heisenberg parameter")
    p_g.add_argument("--n", type=int, help="free group rank")
    p_g.add_argument("--h", help="comma-separated resonance component counts")
    p_g.add_argument("--q", type=int, help="single Chen degree")
    p_g.add_argument("--q-max", dest="q_max", type=int)
    _add_common(p_g)
    p_g.set_defaults(func=cmd_group)

    p_s = sub.add_parser("selfcheck", help="run the embedded invariant suite")
    p_s.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except InvalidInputError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ResourceLimitError, KoszulError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
