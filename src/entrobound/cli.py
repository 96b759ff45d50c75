"""Command line front end.

Five subcommands cover the workflow: ``certify`` produces a moment
certificate, ``bound`` and ``samplesize`` evaluate the deviation
inequality in both directions, ``simulate`` stress-tests a bound
empirically, and ``sweep`` batches simulations from a JSON config.

Exit codes: 0 success, 2 usage or model error, 3 inadmissible moment
order, 4 missing tail certificate, 5 truncation budget exceeded,
6 a simulation verdict came back FAIL.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .bounds import (
    bernstein_constants,
    deviation_bound,
    epsilon_for,
    min_sample_size,
    select_r,
)
from .certify import (
    DEFAULT_SLACK,
    MomentCertificate,
    certify_moment,
    entropy_upper_coarse,
    power_sum_partial,
)
from .distributions import Geometric, NegativeBinomial, PmfModel, Poisson, Tabulated, Zeta, json_float, json_int
from .errors import (
    AdmissibilityError,
    MissingCertificateError,
    ModelError,
    ResourceCapError,
    SweepAborted,
)
from .montecarlo import (
    DEFAULT_REPLICATES,
    SimulationConfig,
    SimulationReport,
    estimate_deviation_probability,
    reports_to_csv,
    reports_to_json,
    sweep,
)

__all__ = ["main", "console_main", "parse_model_spec"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_NO_CERTIFICATE = 4
EXIT_RESOURCE = 5
EXIT_SIM_FAIL = 6

# family -> (constructor, parameter count, usage example)
_FAMILIES = {
    "geometric": (Geometric, 1, "geometric:0.5"),
    "poisson": (Poisson, 1, "poisson:4.0"),
    "negbinomial": (NegativeBinomial, 2, "negbinomial:3,0.4"),
    "zeta": (Zeta, 1, "zeta:2.0"),
}


def parse_model_spec(spec: str) -> PmfModel:
    """Build a model from ``family:params`` or ``tabulated:<path>``."""
    if not isinstance(spec, str):
        raise ModelError(f"a model spec must be a string such as geometric:0.5, got {spec!r}")
    family, sep, rest = spec.partition(":")
    family = family.strip().lower()
    if family == "tabulated":
        if not sep or not rest.strip():
            raise ModelError("tabulated model needs a file path, e.g. tabulated:probs.json")
        path = Path(rest.strip())
        if not path.is_file():
            raise ModelError(f"tabulated model file not found: {path}")
        try:
            return Tabulated.load(path)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ModelError(f"could not parse tabulated model {path}: {exc}") from exc
    if family not in _FAMILIES:
        known = ", ".join(sorted([*_FAMILIES, "tabulated"]))
        raise ModelError(f"unknown model family {family!r} in {spec!r}; known families: {known}")
    ctor, arity, example = _FAMILIES[family]
    if not sep or not rest.strip():
        raise ModelError(f"{family} needs {arity} parameter(s), e.g. {example}")
    tokens = [token.strip() for token in rest.split(",")]
    if len(tokens) != arity:
        raise ModelError(
            f"{family} takes {arity} parameter(s), got {len(tokens)} in {spec!r}; e.g. {example}"
        )
    params = []
    for token in tokens:
        try:
            params.append(float(token))
        except ValueError:
            raise ModelError(f"bad numeric parameter {token!r} in {spec!r}") from None
    return ctor(*params)


def _parse_eps_list(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(float(token))
        except ValueError:
            raise ModelError(f"bad deviation radius {token!r} in {text!r}") from None
    return tuple(values)


def _resolve_certificate(
    model: PmfModel | None,
    cert: str | None,
    r: float | None,
    slack: float | None,
    target_eps: float | None,
    sampled: bool = False,
) -> MomentCertificate:
    """The certificate a command works from: loaded from ``cert`` when given,
    else certified for ``model`` at order ``r`` (or the one ``select_r``
    picks for ``target_eps``) and ``slack``, each unset value defaulting.
    A loaded certificate fixes r and slack. Only a ``sampled`` model may
    come with one, and a positive slack lets it be checked against that
    model: C_r below the model's own partial power sum at that r and slack
    refutes it."""
    if cert:
        inputs = (("--r", r), ("--slack", slack), ("--target-eps", target_eps))
        if not sampled:
            inputs = (("a model spec", model), *inputs)
        given = ", ".join(name for name, value in inputs if value is not None)
        if given:
            raise ModelError(f"--cert cannot be combined with {given}")
        certificate = MomentCertificate.load(cert)
        if sampled and certificate.slack > 0:
            k = certify_moment(model, r=certificate.r, eps=certificate.slack).truncation_index
            partial = power_sum_partial(model, certificate.r, k)
            if certificate.C_r < partial:
                raise ModelError(
                    f"certificate {cert} claims C_r = {certificate.C_r!r}, below {partial!r}, "
                    f"the power sum of {model.describe()} through k = {k} at r = {certificate.r!r}"
                )
        return certificate
    if model is None:
        raise ModelError("either a model spec or --cert is required")
    slack = DEFAULT_SLACK if slack is None else slack
    if r is None and target_eps is not None:
        r = select_r(model, eps=slack, target_eps=target_eps)
    return certify_moment(model, r=r, eps=slack)


def _check_workers(workers: int) -> None:
    """Refuse a worker count outside 1 .. the CPUs this process may run on."""
    limit = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not 1 <= workers <= limit:
        raise ValueError(f"--workers must lie in 1..{limit}, the CPUs available, got {workers}")


def _describe_choice(value, flag_given: bool) -> str:
    return f"{value!r}" if flag_given else f"{value!r} (default)"


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_certify(args: argparse.Namespace) -> int:
    model = parse_model_spec(args.model)
    certificate = _resolve_certificate(model, None, args.r, args.slack, args.target_eps)
    text = certificate.to_json()
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        lines = [
            f"model: {model.describe()}",
            f"r: {_describe_choice(certificate.r, args.r is not None or args.target_eps is not None)}",
            f"slack: {_describe_choice(certificate.slack, args.slack is not None)}",
            f"C_r: {certificate.C_r!r}",
            f"truncation index: {certificate.truncation_index}",
            f"provenance: {certificate.provenance}",
            f"entropy upper bound (coarse): {entropy_upper_coarse(certificate)!r}",
        ]
        if args.out:
            lines.append(f"saved to: {args.out}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    model = parse_model_spec(args.model) if args.model else None
    certificate = _resolve_certificate(model, args.cert, args.r, args.slack, args.target_eps)
    constants = bernstein_constants(certificate)
    eps = _parse_eps_list(args.eps)
    rows = [(e, deviation_bound(constants, args.n, e)) for e in eps]
    if args.format == "json":
        payload = {
            "certificate": certificate.to_dict(),
            "n": args.n,
            "bounds": [{"eps": e, "bound_value": b} for e, b in rows],
        }
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        text = "eps,bound_value\n" + "".join(f"{e!r},{b!r}\n" for e, b in rows)
        _write_or_print(text, args.out)
    else:
        lines = [
            f"model: {model.describe() if model else f'certificate {args.cert}'}",
            f"r: {certificate.r!r}  C_r: {certificate.C_r!r}  slack: {certificate.slack!r}",
            f"n: {args.n}",
        ]
        lines += [f"eps={e!r}: bound={b!r}" for e, b in rows]
        _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_samplesize(args: argparse.Namespace) -> int:
    model = parse_model_spec(args.model) if args.model else None
    certificate = _resolve_certificate(model, args.cert, args.r, args.slack, args.target_eps)
    constants = bernstein_constants(certificate)
    if (args.eps is None) == (args.n is None):
        raise ModelError("exactly one of --eps or --n is required")
    if args.eps is not None:
        n = min_sample_size(constants, args.eps, args.delta)
        payload = {"mode": "sample_size", "eps": args.eps, "delta": args.delta, "n": n}
        text = (
            f"smallest n with P(|deviation| >= {args.eps!r}) <= {args.delta!r}: {n}\n"
        )
    else:
        eps = epsilon_for(constants, args.n, args.delta)
        payload = {"mode": "radius", "n": args.n, "delta": args.delta, "eps": eps}
        text = (
            f"radius achieved at n={args.n} with failure budget {args.delta!r}: {eps!r}\n"
        )
    if args.format == "json":
        payload["certificate"] = certificate.to_dict()
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_text(report: SimulationReport) -> str:
    lines = [
        f"model: {report.model}",
        f"n: {report.n}  replicates: {report.replicates}  seed: {report.seed}",
        f"r: {report.certificate.r!r}  C_r: {report.certificate.C_r!r}  "
        f"slack: {report.certificate.slack!r}",
        f"entropy interval: [{report.entropy.lower!r}, {report.entropy.upper!r}]",
    ]
    for record in report.records:
        lines.append(
            f"eps={record.eps!r}: hits={record.hit_count} "
            f"frequency={record.frequency!r} stderr={record.stderr!r} "
            f"bound={record.bound_value!r} {record.verdict}"
        )
    lines.append(f"elapsed: {report.elapsed:.2f}s")
    return "\n".join(lines) + "\n"


def _reports_exit_code(reports: list[SimulationReport]) -> int:
    failed = any(record.verdict == "FAIL" for report in reports for record in report.records)
    return EXIT_SIM_FAIL if failed else EXIT_OK


def _emit_reports(reports: list[SimulationReport], fmt: str, out: str | None) -> None:
    if fmt == "json":
        rendered = reports_to_json(reports)
    elif fmt == "csv":
        rendered = reports_to_csv(reports)
    else:
        rendered = "\n".join(_report_text(r) for r in reports)
    if out:
        # a text-format run still gets machine-readable output on disk
        Path(out).write_text(rendered if fmt != "text" else reports_to_csv(reports))
        if fmt == "text":
            sys.stdout.write(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    model = parse_model_spec(args.model)
    config = SimulationConfig(
        model=model,
        n=args.n,
        eps=_parse_eps_list(args.eps),
        replicates=args.replicates,
        seed=args.seed,
        entropy_tolerance=args.entropy_tol,
    )
    certificate = _resolve_certificate(model, args.cert, args.r, args.slack, None, sampled=True)
    report = estimate_deviation_probability(config, certificate, workers=args.workers)
    _emit_reports([report], args.format, args.out)
    return _reports_exit_code([report])


def _config_from_dict(payload: dict) -> tuple[SimulationConfig, MomentCertificate | None]:
    if not isinstance(payload, dict):
        raise ModelError(f"sweep config entries must be objects, got {payload!r}")
    try:
        spec = payload["model"]
        n = payload["n"]
        eps = payload["eps"]
    except KeyError as exc:
        raise ModelError(f"sweep config entry is missing key {exc}") from None
    model = parse_model_spec(spec)
    try:
        r, slack, tol = (
            None if payload.get(k) is None else json_float(payload[k], k) for k in ("r", "slack", "entropy_tol")
        )
        config = SimulationConfig(
            model=model,
            n=json_int(n, "n"),
            eps=eps,
            replicates=json_int(payload.get("replicates", DEFAULT_REPLICATES), "replicates"),
            seed=json_int(payload.get("seed", 0), "seed"),
            entropy_tolerance=tol,
        )
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed sweep config entry {payload!r}: {exc}") from exc
    # An entry without either key is certified inside the sweep, so a
    # failure there still emits the reports finished before it.
    certificate = None
    if "r" in payload or "slack" in payload:
        certificate = _resolve_certificate(model, None, r, slack, None)
    return config, certificate


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    try:
        payload = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ModelError(f"could not read sweep config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"sweep config {args.config} is not valid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = payload.get("configs")
    if not isinstance(payload, list) or not payload:
        raise ModelError("sweep config must be a nonempty list or {'configs': [...]}")
    configs, certificates = [], []
    for entry in payload:
        config, certificate = _config_from_dict(entry)
        configs.append(config)
        certificates.append(certificate)
    try:
        reports = sweep(configs, certificates, workers=args.workers)
    except SweepAborted as exc:
        if exc.partial:
            _emit_reports(exc.partial, args.format, args.out)
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return _code_for(cause) if cause is not None else EXIT_USAGE
    _emit_reports(reports, args.format, args.out)
    return _reports_exit_code(reports)


# -- parser ------------------------------------------------------------------


def _add_cert_options(sub: argparse.ArgumentParser, with_target: bool = True) -> None:
    sub.add_argument("--r", type=float, default=None, help="moment order in (0, 1)")
    sub.add_argument(
        "--slack",
        type=float,
        default=None,
        help=f"certification slack (default {DEFAULT_SLACK:g})",
    )
    if with_target:
        sub.add_argument(
            "--target-eps",
            type=float,
            default=None,
            dest="target_eps",
            help="pick the moment order that best serves this deviation radius",
        )


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and a map from each subcommand's name to its parser,
    shared by every ``main`` call: parsing never changes them."""
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Certified moment bounds and deviation inequalities for "
        "log-likelihood means of discrete models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    p = add("certify", help="compute and optionally save a moment certificate")
    p.add_argument("model", help="model spec, e.g. geometric:0.5 or tabulated:probs.json")
    _add_cert_options(p)
    p.add_argument("--out", default=None, help="write the certificate JSON here")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_certify)

    p = add("bound", help="evaluate the deviation bound at given radii")
    p.add_argument("model", nargs="?", default=None, help="model spec (omit when using --cert)")
    p.add_argument("--cert", default=None, help="load a saved certificate instead of certifying")
    _add_cert_options(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--eps", required=True, help="comma-separated deviation radii")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(handler=_cmd_bound)

    p = add(
        "samplesize", help="invert the bound for a sample size or achievable radius"
    )
    p.add_argument("model", nargs="?", default=None, help="model spec (omit when using --cert)")
    p.add_argument("--cert", default=None, help="load a saved certificate instead of certifying")
    _add_cert_options(p)
    p.add_argument("--eps", type=float, default=None, help="target deviation radius")
    p.add_argument("--n", type=int, default=None, help="fixed sample size (solves for the radius)")
    p.add_argument("--delta", type=float, required=True, help="failure probability budget in (0, 2)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=_cmd_samplesize)

    p = add("simulate", help="estimate deviation frequencies against the bound")
    p.add_argument("model", help="model spec")
    p.add_argument("--cert", default=None, help="load a saved certificate instead of certifying")
    _add_cert_options(p, with_target=False)
    p.add_argument("--n", type=int, required=True, help="draws per replicate")
    p.add_argument("--eps", required=True, help="comma-separated deviation radii")
    p.add_argument(
        "--replicates", type=int, default=DEFAULT_REPLICATES,
        help=f"Monte Carlo replicates (default {DEFAULT_REPLICATES})",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--entropy-tol", type=float, default=None, dest="entropy_tol",
        help="entropy enclosure width (default min(eps)/100)",
    )
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", default=None, help="write results here (CSV unless --format json)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(handler=_cmd_simulate)

    p = add("sweep", help="run a batch of simulations from a JSON config")
    p.add_argument("--config", required=True, help="JSON list of simulate configs")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", default=None, help="write results here (CSV unless --format json)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_sweep)

    return parser, commands


def _code_for(exc: BaseException) -> int:
    if isinstance(exc, MissingCertificateError):
        return EXIT_NO_CERTIFICATE
    if isinstance(exc, AdmissibilityError):
        return EXIT_INADMISSIBLE
    if isinstance(exc, ResourceCapError):
        return EXIT_RESOURCE
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            # no command, an unknown one or --help: the full parser reports it
            args = parser.parse_args(argv)
        else:
            # what the full parser would do, without its pass over argv
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (ModelError, AdmissibilityError, ResourceCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _code_for(exc)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
