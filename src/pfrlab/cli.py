"""Command-line entry point: model configuration, experiment orchestration, CSV output.

Subcommands: rd-curve, verify-pfr, redundancy-sweep, gray-wyner.  All inputs
come from a single JSON config (probabilities as decimal strings, seed as a
64-hex-char string); all randomness flows from the config seed.  Outputs are
deterministic functions of (config, seed).

Exit codes:
    0  success, all requested checks pass
    1  a requested check failed (a bound or law violated empirically)
    2  config or flag parse/validation failure, including a null required
       field, trials above MAX_TRIALS, a pfr.proposal or gray_wyner model
       whose selection ratios overflow or put mass where a proposal has none,
       a target_D below the minimum distortion and an unusable --out
    3  solver non-convergence
    4  gray-wyner round-trip mismatch (internal invariant breach)
"""

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .codebook import arrival_stream, derive_subseed, stream_keys
from .errors import NotConverged, PfrlabError, RoundTripMismatch, TargetOutOfRange
from .gray_wyner import GwModel, gw_decode, gw_encode, gw_records_to_csv, gw_run_trials
from .pfr import (_density_ratio, dominance_parameter, geometric_parameter_exact,
                  pfr_select)
from .prob import DistortionMatrix, FinitePmf, Kernel, Seed, kl_divergence
from .rd import ba_fixed_slope, solve_at_distortion
from .redundancy import (CODE_KINDS, ETA_KINDS, TailEstimate, _mean_se,
                         bound_rhs, chunk_spans, records_to_csv, select_span,
                         trial_tables)


# redundancy-sweep keeps one span of trials in memory, whatever the count; but
# gray-wyner peaks at about 190 B per trial (1.9 GB at the ceiling) and
# verify-pfr at about 60 B, since they keep every trial's columns
MAX_TRIALS = 10 ** 7
# verify-pfr's horizon-x2 replays stream about 2 f_max points each, in Python:
# they stop after the trial that reaches this many points (about a second)
REPLAY_POINTS = 2 ** 20


class ConfigError(PfrlabError):
    def __init__(self, field: str, msg: str):
        super().__init__(f"config error in field '{field}': {msg}")
        self.field = field


def _number(v, field: str) -> float:
    if isinstance(v, bool):
        raise ConfigError(field, f"expected a decimal number, got {v!r}")
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a decimal number, got {v!r}") from None
    if not math.isfinite(x):
        raise ConfigError(field, f"value must be finite, got {v!r}")
    return x


def _vector(v, field: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ConfigError(field, "expected a nonempty list")
    return np.array([_number(e, field) for e in v])


def _matrix(v, field: str) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ConfigError(field, "expected a nonempty list of rows")
    rows = [_vector(r, field) for r in v]
    if len({r.size for r in rows}) != 1:
        raise ConfigError(field, "rows have inconsistent lengths")
    return np.stack(rows)


def _build(cls, field: str, *args, **kwargs):
    """cls(*args, **kwargs), reporting its ValueError as a ConfigError in field."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(field, str(e)) from None


def _pmf(v, field: str) -> FinitePmf:
    return _build(FinitePmf, field, _vector(v, field))


@dataclass
class ExperimentConfig:
    source: FinitePmf
    distortion: DistortionMatrix
    target_D: float
    trials: int
    seed: Seed
    gamma_grid: list
    pfr_target: FinitePmf
    pfr_proposal: FinitePmf
    gw_model: GwModel


_REQUIRED = {
    "rd-curve": ("source", "distortion"),
    "verify-pfr": ("trials", "seed"),
    "redundancy-sweep": ("source", "distortion", "target_D", "trials", "seed",
                         "gamma_grid"),
    "gray-wyner": ("gray_wyner", "trials", "seed"),
}


def load_config(path: str, mode: str, trials_override=None,
                seed_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")

    cfg_mode = raw.get("mode")
    if cfg_mode is not None and cfg_mode != mode:
        raise ConfigError("mode", f"config says {cfg_mode!r} but subcommand is {mode!r}")

    overrides = {"trials": trials_override, "seed": seed_override}
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    for field in _REQUIRED[mode]:
        if raw.get(field) is None:
            raise ConfigError(field, "required for this mode but missing or null")

    source = _pmf(raw["source"], "source") if "source" in raw else None
    distortion = None
    if "distortion" in raw:
        distortion = _build(DistortionMatrix, "distortion",
                            _matrix(raw["distortion"], "distortion"))
    if source is not None and distortion is not None:
        if distortion.shape[0] != len(source):
            raise ConfigError("distortion",
                              f"has {distortion.shape[0]} rows but source has "
                              f"{len(source)} symbols")

    target_d = _number(raw["target_D"], "target_D") if "target_D" in raw else None

    trials = raw.get("trials")
    if trials is not None:
        if (not isinstance(trials, int) or isinstance(trials, bool)
                or not 1 <= trials <= MAX_TRIALS):
            raise ConfigError("trials", f"must be an integer from 1 to {MAX_TRIALS}, "
                                        f"got {trials!r}")

    seed = None
    if raw.get("seed") is not None:
        seed = _build(Seed.from_hex, "seed", str(raw["seed"]))

    gamma_grid = None
    if "gamma_grid" in raw:
        if not isinstance(raw["gamma_grid"], list):
            raise ConfigError("gamma_grid",
                              f"expected a list of decimal numbers, got "
                              f"{raw['gamma_grid']!r}")
        gamma_grid = [_number(g, "gamma_grid") for g in raw["gamma_grid"]]
        if mode == "redundancy-sweep" and not gamma_grid:
            raise ConfigError("gamma_grid", "must be nonempty for redundancy-sweep")

    pfr_target = pfr_proposal = None
    if "pfr" in raw:
        blk = raw["pfr"]
        if not isinstance(blk, dict):
            raise ConfigError("pfr", "expected an object with target/proposal")
        if "target" in blk:
            pfr_target = _pmf(blk["target"], "pfr.target")
        if "proposal" in blk:
            pfr_proposal = _pmf(blk["proposal"], "pfr.proposal")
    if mode == "verify-pfr":
        if pfr_target is None:
            if source is None:
                raise ConfigError("pfr.target",
                                  "verify-pfr needs a pfr.target block or a source pmf")
            pfr_target = source
        if pfr_proposal is None:
            pfr_proposal = FinitePmf.uniform(len(pfr_target))
        _build(_density_ratio, "pfr.proposal", pfr_target.probs, pfr_proposal.probs)

    gw_model = None
    if "gray_wyner" in raw:
        blk = raw["gray_wyner"]
        if not isinstance(blk, dict):
            raise ConfigError("gray_wyner", "expected an object")
        keys = ("joint_source", "u_kernel", "y1_kernel", "y2_kernel")
        for key in keys:
            if key not in blk:
                raise ConfigError(f"gray_wyner.{key}", "missing")
        mats = {key: _matrix(blk[key], f"gray_wyner.{key}") for key in keys}
        kernels = {key: _build(Kernel, f"gray_wyner.{key}", mats[key])
                   for key in keys[1:]}
        gw_model = _build(GwModel, "gray_wyner", joint_source=mats["joint_source"],
                          **kernels)

    return ExperimentConfig(source=source, distortion=distortion,
                            target_D=target_d, trials=trials, seed=seed,
                            gamma_grid=gamma_grid, pfr_target=pfr_target,
                            pfr_proposal=pfr_proposal, gw_model=gw_model)


def _g(v: float) -> str:
    return format(float(v), ".9g")


def _write(out_dir: str, name: str, lines) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _report(out_dir: str, name: str, header: str, checks) -> int:
    """Write checks, (name, statistic, bound, passed) rows, under header to the
    CSV name; 0 if every check passed, else 1."""
    rows = [f"{c},{_g(stat)},{_g(bound)},{str(bool(ok)).lower()}"
            for c, stat, bound, ok in checks]
    _write(out_dir, name, [header] + rows)
    return 0 if all(c[3] for c in checks) else 1


def _log2_k_row(name: str, ks, info: float) -> tuple:
    """The check mean log2 k + 3 SE <= info + 1 over the indices ks."""
    mean, se = _mean_se(np.log2(ks))
    stat, bound = mean + 3.0 * se, info + 1.0
    return name, stat, bound, stat <= bound


def cmd_rd_curve(cfg: ExperimentConfig, out_dir: str) -> int:
    source, d = cfg.source, cfg.distortion
    zero = ba_fixed_slope(source, d, 0.0)
    d_min = float(source.probs @ d.d.min(axis=1))
    lines = ["s,D,R,lambda_star"]
    rows = [(0.0, zero)]
    span = zero.distortion - d_min
    if span > 1e-12:
        s_hi = 1.0
        for _ in range(60):
            sol = ba_fixed_slope(source, d, s_hi)
            if sol.distortion <= d_min + 1e-4 * span:
                break
            s_hi *= 2.0
        slopes = np.geomspace(s_hi / 1024.0, s_hi, 23)
        rows += [(float(s), ba_fixed_slope(source, d, float(s))) for s in slopes]
    prev_d, prev_r = math.inf, -math.inf
    ok = True
    for s, sol in rows:
        lines.append(f"{_g(s)},{_g(sol.distortion)},{_g(sol.rate)},"
                     f"{_g(sol.slope_lambda)}")
        ok &= sol.distortion <= prev_d + 1e-9 and sol.rate >= prev_r - 1e-9
        prev_d, prev_r = sol.distortion, sol.rate
    _write(out_dir, "rd_curve.csv", lines)
    return 0 if ok else 1


def cmd_verify_pfr(cfg: ExperimentConfig, out_dir: str) -> int:
    target, proposal, seed, n = (cfg.pfr_target, cfg.pfr_proposal, cfg.seed,
                                 cfg.trials)

    def select(t, **kwargs):
        stream = arrival_stream(derive_subseed(seed, t, "codebook"), "codebook",
                                proposal)
        return pfr_select(target, proposal, stream, **kwargs)

    # the batched engine; the replay checks below rerun trials with pfr_select
    parts = [select_span(stream_keys(seed, span, "codebook"), [target],
                         np.zeros(len(span), dtype=np.int64), proposal)
             for span in chunk_spans(n)]
    ks, ys = (np.concatenate(col) for col in zip(*parts))
    m = len(target)
    checks = []

    freq = np.bincount(ys, minlength=m) / n
    tv = 0.5 * float(np.abs(freq - target.probs).sum())
    checks.append(("marginal_tv", tv, 3.0 * math.sqrt(m / n), tv <= 3.0 * math.sqrt(m / n)))

    for y in target.support:
        ky = ks[ys == y]
        if ky.size < 20_000:
            continue
        p_geom = geometric_parameter_exact(target, proposal, int(y))
        kmax = int(ky.max())
        emp = np.bincount(ky, minlength=kmax + 1)[1:] / ky.size
        grid = np.arange(1, kmax + 1)
        pmf = p_geom * (1.0 - p_geom) ** (grid - 1)
        tv_k = 0.5 * (float(np.abs(emp - pmf).sum()) + (1.0 - p_geom) ** kmax)
        checks.append((f"conditional_geom_tv_y{y}", tv_k, 0.02, tv_k <= 0.02))

    for y in target.support:
        ky = ks[ys == y]
        if ky.size == 0:
            continue
        p_dom = dominance_parameter(target, proposal, int(y))
        worst = -math.inf
        for k in range(1, 51):
            surv = float((ky > k).mean())
            se = math.sqrt(surv * (1.0 - surv) / ky.size)
            worst = max(worst, surv - (1.0 - p_dom) ** k - 3.0 * se)
        checks.append((f"dominance_slack_y{y}", worst, 0.0, worst <= 0.0))

    checks.append(_log2_k_row("mean_log2_k_plus_3se", ks,
                              kl_divergence(target, proposal)))

    res0 = select(0)
    same = res0.k == int(ks[0]) and res0.y == int(ys[0])
    checks.append(("replay_determinism", float(same), 1.0, same))

    stable, points = True, 0
    for t in range(min(n, 1000)):
        res = select(t, horizon_scale=2.0)
        stable &= res.k == int(ks[t]) and res.y == int(ys[t])
        points += res.examined
        if points >= REPLAY_POINTS:
            break
    checks.append(("stopping_rule_horizon_x2", float(stable), 1.0, stable))

    return _report(out_dir, "pfr_checks.csv", "check,statistic,threshold,passed",
                   checks)


def cmd_redundancy_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    try:
        sol = solve_at_distortion(cfg.source, cfg.distortion, cfg.target_D)
    except TargetOutOfRange as e:
        raise ConfigError("target_D", str(e)) from None
    kinds = [(eta, code) for eta in ETA_KINDS for code in CODE_KINDS]
    gammas = np.array(cfg.gamma_grid)
    # above[i, g]: trials whose redundancy of kinds[i] is at least gammas[g]
    above = np.zeros((len(kinds), gammas.size), dtype=np.int64)
    with open(os.path.join(out_dir, "trials.csv"), "w") as fh:
        for table in trial_tables(sol, cfg.trials, cfg.seed):
            records_to_csv(table, fh)
            above += [(table[f"{eta.lower()}_{code}"][:, None] >= gammas).sum(axis=0)
                      for eta, code in kinds]
    lines = ["eta_kind,code_kind,gamma,p_hat,std_err,bound_rhs"]
    ok = True
    for (eta, code), counts in zip(kinds, above.tolist()):
        for gamma, count in zip(cfg.gamma_grid, counts):
            tail = TailEstimate.from_count(gamma, count, cfg.trials)
            rhs = bound_rhs(sol, eta, code, gamma)
            ok &= tail.p_hat - 3.0 * tail.std_err <= rhs
            lines.append(f"{eta},{code},{_g(gamma)},{_g(tail.p_hat)},"
                         f"{_g(tail.std_err)},{_g(rhs)}")
    _write(out_dir, "tails.csv", lines)
    return 0 if ok else 1


def cmd_gray_wyner(cfg: ExperimentConfig, out_dir: str) -> int:
    model, seed, n = cfg.gw_model, cfg.seed, cfg.trials
    table = gw_run_trials(model, n, seed)  # decodes every trial batched
    # and the streaming encoder and decoder must agree on the first 32 trials
    xs, ks, ys = (np.column_stack([table[c][:32] for c in cols]).tolist() for cols in
                  (("x1", "x2"), ("k0", "k1", "k2"), ("u", "y1", "y2")))
    for t, x, k, y in zip(range(32), xs, ks, ys):
        sub = derive_subseed(seed, t, "gw")
        if (astuple(gw_encode(model, *x, sub)) != (*k, *y)
                or gw_decode(model, *k, sub) != tuple(y)):
            raise RoundTripMismatch(t)
    with open(os.path.join(out_dir, "gw_trials.csv"), "w") as fh:
        gw_records_to_csv(table, fh)

    infos = (model.mi_u_sources, model.mi_y_source_given_u(1),
             model.mi_y_source_given_u(2))
    return _report(out_dir, "gw_summary.csv", "quantity,value,bound,passed",
                   [_log2_k_row(f"mean_log2_k{i}_plus_3se", table[f"k{i}"], info)
                    for i, info in enumerate(infos)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfrlab",
        description="One-shot lossy compression experiments via the Poisson "
                    "functional representation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("rd-curve", "verify-pfr", "redundancy-sweep", "gray-wyner"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory for CSVs")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; trials run on one "
                            "thread whatever the value (must be >= 1)")
        p.add_argument("--trials", type=int, default=None,
                       help="override config trial count")
        p.add_argument("--seed", default=None,
                       help="override config seed (64 hex chars)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        cfg = load_config(args.config, args.command, trials_override=args.trials,
                          seed_override=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise ConfigError("--out", f"cannot create directory: {e}") from None
        if args.command == "rd-curve":
            return cmd_rd_curve(cfg, args.out)
        if args.command == "verify-pfr":
            return cmd_verify_pfr(cfg, args.out)
        if args.command == "redundancy-sweep":
            return cmd_redundancy_sweep(cfg, args.out)
        return cmd_gray_wyner(cfg, args.out)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except NotConverged as e:
        print(f"solver did not converge: {e}", file=sys.stderr)
        return 3
    except RoundTripMismatch as e:
        print(str(e), file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
