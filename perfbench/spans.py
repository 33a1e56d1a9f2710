"""Span tracing for the traced run, installed from outside the package.

The child process calls :func:`install` before it runs a workload.  It wraps
the public functions of every pfrlab module (and the few methods that carry a
layer's work) so that each call records a span: name, start, end, parent span
and trial id.  Spans stay in flat in-memory arrays and :meth:`Tracer.dump`
writes them, with the counters, to one ``.npz`` file when the run ends.

:func:`layer_metrics` turns such a file into the per-layer metrics.  It needs
only numpy, so the benchmark's parent process can read traces without
importing pfrlab.
"""

import json
import time
from array import array

import numpy as np

_ROOT = -1
_NO_TRIAL = -1


class Tracer:
    """In-memory span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("q")
        self._stack = []
        self.trial_id = _NO_TRIAL
        self.counters = {}
        # per pfr_select call: points examined and their expectation
        self.examined = array("q")
        self.expected = array("d")
        self._fmax = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, after=None, ends_trial=False):
        """Wrap fn so each call records a span; after(args, kwargs, out) runs on return."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, trials, stack = self.parent, self.trial, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else _ROOT)
            trials.append(self.trial_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if ends_trial:
                    self.trial_id = _NO_TRIAL
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        """Wrap fn so each call only bumps a counter (for calls too cheap to span)."""
        def wrapper(*args, **kwargs):
            self.counters[key] = self.counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def f_max(self, target, proposal) -> float:
        """max_y target(y)/proposal(y) over the proposal's support, cached per pair."""
        key = (id(target), id(proposal))
        hit = self._fmax.get(key)
        if hit is None:
            p, q = target.probs, proposal.probs
            pos = q > 0
            hit = (target, proposal, float((p[pos] / q[pos]).max()))
            self._fmax[key] = hit
        return hit[2]

    def dump(self, path):
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 trial=np.frombuffer(self.trial, dtype=np.int64),
                 examined=np.frombuffer(self.examined, dtype=np.int64),
                 expected=np.frombuffer(self.expected, dtype=np.float64),
                 meta=np.array(json.dumps({"names": self.names,
                                           "counters": self.counters})))


def _rebind(modules, orig, new):
    """Point every module-level name bound to orig at new (covers `from x import f`)."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap pfrlab's layer boundaries; call before the workload imports names late."""
    import pfrlab
    from pfrlab import bitcodes, cli, codebook, gray_wyner, pfr, prob, rd, redundancy

    modules = (pfrlab, bitcodes, cli, codebook, gray_wyner, pfr, prob, rd,
               redundancy)
    t = tracer

    def fn(mod, attr, make):
        orig = getattr(mod, attr)
        _rebind(modules, orig, make(orig))

    def method(cls, attr, make):
        setattr(cls, attr, make(cls.__dict__[attr]))

    # prob; a subseed derivation names the trial that the spans after it serve
    def derive(orig):
        inner = t.span("prob.derive", orig)

        def wrapper(seed, trial, role):
            t.trial_id = trial
            return inner(seed, trial, role)

        return wrapper

    fn(codebook, "derive_subseed", derive)
    method(prob.Seed, "stream", lambda f: t.span("prob.stream", f))

    def words(args, kwargs, out):
        t.count("prob.rng_words", len(out))

    method(prob.RngState, "uint64", lambda f: t.span("prob.rng", f, after=words))
    fn(prob, "sample_pmf", lambda f: t.span("prob.sample_pmf", f))

    # rd
    fn(rd, "solve_at_distortion", lambda f: t.span("rd.solve", f))
    fn(rd, "ba_fixed_slope", lambda f: t.span("rd.ba", f))

    # codebook
    fn(codebook, "arrival_stream", lambda f: t.counter("codebook.streams", f))

    def drawn(args, kwargs, out):
        t.count("codebook.points_drawn", args[0]._times.size)

    method(codebook.CodebookStream, "_refill",
           lambda f: t.span("codebook.refill", f, after=drawn))

    # pfr
    def selected(args, kwargs, out):
        scale = kwargs.get("horizon_scale", 1.0)
        t.examined.append(out.examined)
        t.expected.append(scale * t.f_max(args[0], args[1]) + 1.0)
        if out.k > t.counters.get("pfr.k_max", 0):
            t.counters["pfr.k_max"] = out.k

    fn(pfr, "pfr_select", lambda f: t.span("pfr.select", f, after=selected))

    # bitcodes
    def bits(args, kwargs, out):
        t.count("bitcodes.bits", len(out))

    fn(bitcodes, "encode_delta", lambda f: t.span("bitcodes.encode", f, after=bits))
    fn(bitcodes, "decode_delta", lambda f: t.span("bitcodes.decode", f))
    fn(bitcodes, "delta_code_length",
       lambda f: t.counter("bitcodes.length_calls", f))

    # redundancy
    fn(redundancy, "run_trials",
       lambda f: t.span("redundancy.run_trials", f, ends_trial=True))
    fn(redundancy, "bound_rhs", lambda f: t.span("redundancy.bound_rhs", f))
    fn(redundancy, "estimate_tail", lambda f: t.span("redundancy.estimate_tail", f))

    def csv_bytes(orig):
        inner = t.span("redundancy.csv", orig)

        def wrapper(records, fh):
            before = fh.tell()
            inner(records, fh)
            t.count("redundancy.csv_bytes", fh.tell() - before)

        return wrapper

    fn(redundancy, "records_to_csv", csv_bytes)

    # gray_wyner
    fn(gray_wyner, "gw_run_trials",
       lambda f: t.span("gray_wyner.run_trials", f, ends_trial=True))
    fn(gray_wyner, "gw_encode", lambda f: t.span("gray_wyner.encode", f))

    def decoded(args, kwargs, out):
        t.count("gray_wyner.decode_points", args[1] + args[2] + args[3])

    fn(gray_wyner, "gw_decode",
       lambda f: t.span("gray_wyner.decode", f, after=decoded, ends_trial=True))
    fn(gray_wyner, "gw_records_to_csv", lambda f: t.span("gray_wyner.csv", f))

    def resort(orig):
        inner = t.span("gray_wyner.resort", orig)

        def wrapper(self):
            before = self.base.cursor
            out = inner(self)
            t.count("gray_wyner.resort_points")
            t.count("gray_wyner.base_points", self.base.cursor - before)
            return out

        return wrapper

    method(gray_wyner.ResortedStream, "next_marked_point", resort)
    method(gray_wyner.GwModel, "mi_y_source_given_u",
           lambda f: t.span("gray_wyner.bounds", f))
    cached = gray_wyner.GwModel.__dict__["mi_u_sources"]
    cached.func = t.span("gray_wyner.bounds", cached.func)

    # cli
    fn(cli, "load_config", lambda f: t.span("cli.load_config", f))
    for cmd in ("cmd_rd_curve", "cmd_verify_pfr", "cmd_redundancy_sweep",
                "cmd_gray_wyner"):
        fn(cli, cmd, lambda f: t.span("cli.command", f))


# Per-layer metrics: name -> (unit, how it is computed from the trace).
# "sum:<span>" is total inclusive time of a span name, "self:<span>" its
# self time, "calls:<span>" its call count, "count:<key>" a counter and
# "examined" the sum of PfrResult.examined over pfr_select calls.
LAYER_METRICS = {
    "prob.derive_calls": ("count", ["calls:prob.derive", "calls:prob.stream"]),
    "prob.derive_s": ("s", ["sum:prob.derive", "sum:prob.stream"]),
    "prob.rng_words": ("count", ["count:prob.rng_words"]),
    "prob.rng_s": ("s", ["sum:prob.rng"]),
    "prob.sample_pmf_s": ("s", ["sum:prob.sample_pmf"]),
    "rd.solve_s": ("s", ["sum:rd.solve"]),
    "rd.ba_calls": ("count", ["calls:rd.ba"]),
    "rd.ba_s": ("s", ["sum:rd.ba"]),
    "codebook.streams": ("count", ["count:codebook.streams"]),
    "codebook.refills": ("count", ["calls:codebook.refill"]),
    "codebook.refill_s": ("s", ["sum:codebook.refill"]),
    "codebook.points_drawn": ("count", ["count:codebook.points_drawn"]),
    "pfr.select_calls": ("count", ["calls:pfr.select"]),
    "pfr.select_self_s": ("s", ["self:pfr.select"]),
    "pfr.points_examined": ("count", ["examined"]),
    "pfr.k_max": ("count", ["count:pfr.k_max"]),
    "bitcodes.encode_s": ("s", ["sum:bitcodes.encode"]),
    "bitcodes.decode_s": ("s", ["sum:bitcodes.decode"]),
    "bitcodes.bits": ("count", ["count:bitcodes.bits"]),
    "bitcodes.length_calls": ("count", ["count:bitcodes.length_calls"]),
    "redundancy.run_trials_s": ("s", ["sum:redundancy.run_trials"]),
    "redundancy.run_trials_self_s": ("s", ["self:redundancy.run_trials"]),
    "redundancy.bound_rhs_calls": ("count", ["calls:redundancy.bound_rhs"]),
    "redundancy.bound_rhs_s": ("s", ["sum:redundancy.bound_rhs"]),
    "redundancy.estimate_tail_s": ("s", ["sum:redundancy.estimate_tail"]),
    "redundancy.csv_s": ("s", ["sum:redundancy.csv"]),
    "redundancy.csv_bytes": ("count", ["count:redundancy.csv_bytes"]),
    "gray_wyner.run_trials_s": ("s", ["sum:gray_wyner.run_trials"]),
    "gray_wyner.encode_s": ("s", ["sum:gray_wyner.encode"]),
    "gray_wyner.resort_points": ("count", ["count:gray_wyner.resort_points"]),
    "gray_wyner.base_points": ("count", ["count:gray_wyner.base_points"]),
    "gray_wyner.resort_self_s": ("s", ["self:gray_wyner.resort"]),
    "gray_wyner.decode_s": ("s", ["sum:gray_wyner.decode"]),
    "gray_wyner.decode_points": ("count", ["count:gray_wyner.decode_points"]),
    "gray_wyner.csv_s": ("s", ["sum:gray_wyner.csv"]),
    "gray_wyner.bounds_s": ("s", ["sum:gray_wyner.bounds"]),
    "cli.load_config_s": ("s", ["sum:cli.load_config"]),
    "cli.self_s": ("s", ["self:cli.command"]),
}


def layer_metrics(path) -> dict:
    """Per-layer values of one traced process, plus the examined-ratio check data.

    Returns {metric: value} for every LAYER_METRICS entry and the ratios
    pfr.examined_ratio (with its standard error under "pfr.examined_ratio_se"),
    pfr.scan_yield and gray_wyner.resort_yield.
    """
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        name, start, end, parent = z["name"], z["start"], z["end"], z["parent"]
        examined, expected = z["examined"], z["expected"]
    dur = (end - start).astype(np.float64) * 1e-9
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child
    nid = {n: i for i, n in enumerate(meta["names"])}
    counters = meta["counters"]

    def term(spec):
        kind, _, key = spec.partition(":")
        if kind == "examined":
            return int(examined.sum())
        if kind == "count":
            return counters.get(key, 0)
        sel = name == nid.get(key, -1)
        if kind == "calls":
            return int(sel.sum())
        return float((dur if kind == "sum" else own)[sel].sum())

    out = {m: sum(term(s) for s in specs)
           for m, (_, specs) in LAYER_METRICS.items()}
    total_expected = float(expected.sum())
    if total_expected > 0:
        ratio = float(examined.sum()) / total_expected
        resid = examined - ratio * expected
        se = float(np.sqrt(np.dot(resid, resid))) / total_expected
    else:
        ratio, se = 0.0, 0.0
    out["pfr.examined_ratio"] = ratio
    out["pfr.examined_ratio_se"] = se
    drawn = out["codebook.points_drawn"]
    out["pfr.scan_yield"] = out["pfr.points_examined"] / drawn if drawn else 0.0
    base = out["gray_wyner.base_points"]
    out["gray_wyner.resort_yield"] = (out["gray_wyner.resort_points"] / base
                                      if base else 0.0)
    return out
