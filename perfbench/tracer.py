"""Span recording around the calls into each ``biokex`` module.

Spans are recorded only from this directory: each wrapped function is
replaced, at every name a ``biokex`` module binds it under, by a wrapper
that appends ``[name, layer, start_ns, end_ns, parent, op, items, error]``
to an in-memory list. ``items`` is a per-call count (bytes sealed, frames
delivered, comparisons scored) or, for ``permute``, 1 when no earlier
traced call in the run used its key token. Nothing in ``src/`` is
instrumented.

Wrappers are installed for one op at a time and removed after it, so ops
run with tracing off carry no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = (
    "minutiae", "features", "transform", "keyagree", "ca",
    "protocol", "netsim", "evaluation", "pipeline", "cli",
)

NAME, LAYER, START, END, PARENT, OP, ITEMS, ERROR = range(8)


def _permute_fresh(tracer, args, kwargs, result):
    token = args[1].token
    if token in tracer.seen_tokens:
        return 0
    tracer.seen_tokens.add(token)
    return 1


def _seal_bytes(tracer, args, kwargs, result):
    return len(args[1])


def _frame_bytes(tracer, args, kwargs, result):
    return 5 + len(result.payload)


def _endpoint_aborted(tracer, args, kwargs, result):
    return int(args[0].state.abort_reason is not None)


def _score_count(tracer, args, kwargs, result):
    return int(result.genuine.size + result.impostor.size)


def _key_count(tracer, args, kwargs, result):
    return len(result)


# (layer, "module.attr" or "module.Class.method", per-call item count)
TARGETS = (
    ("minutiae", "minutiae.synthesize_subject", None),
    ("minutiae", "minutiae.perturb", None),
    ("minutiae", "minutiae.synthesize_dataset", None),
    ("features", "features.extract_features", None),
    ("transform", "transform.permute", _permute_fresh),
    ("keyagree", "keyagree.derive_private_key", None),
    ("keyagree", "keyagree.public_key", None),
    ("keyagree", "keyagree.shared_secret", None),
    ("keyagree", "keyagree.session_key", None),
    ("ca", "ca.RsaKeyPair.generate", None),
    ("ca", "ca.CaRegistry.enroll", None),
    ("ca", "ca.verify_certificate", None),
    ("protocol", "protocol.SessionEndpoint.initiate", None),
    ("protocol", "protocol.SessionEndpoint.on_peer_certificate", None),
    ("protocol", "protocol.SessionEndpoint.exchange_dh", None),
    ("protocol", "protocol.SessionEndpoint.establish", None),
    ("protocol", "protocol.SessionEndpoint.seal", _seal_bytes),
    ("protocol", "protocol.SessionEndpoint.open", None),
    ("protocol", "protocol.SessionEndpoint.close", _endpoint_aborted),
    ("netsim", "netsim.make_environment", None),
    ("netsim", "netsim.make_enrolled_party", None),
    ("netsim", "netsim.run_session", None),
    ("netsim", "netsim.Channel.send", None),
    ("netsim", "netsim.Channel.deliver", _frame_bytes),
    ("netsim", "netsim.AdversaryPolicy.intercept", None),
    ("netsim", "netsim.AdversaryPolicy.knows", None),
    ("evaluation", "evaluation.template_similarity_scores", _score_count),
    ("evaluation", "evaluation.session_key_sample", _key_count),
    ("evaluation", "evaluation.DistributionSummary.from_samples", None),
    ("evaluation", "evaluation.compute_roc", None),
    ("evaluation", "evaluation.eer", None),
    ("evaluation", "evaluation.write_roc_csv", None),
    ("evaluation", "evaluation.write_summary_records", None),
    ("pipeline", "pipeline.revocable_template", None),
    ("pipeline", "pipeline.private_key_from_minutiae", None),
    ("pipeline", "pipeline.keypair_from_minutiae", None),
    ("pipeline", "pipeline.pair_session_key", None),
    ("cli", "cli.dispatch", None),
)


class Tracer:
    """In-memory span list plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        # key tokens permuted so far in the run, for transform.fresh_key_share
        self.seen_tokens: set[bytes] = set()
        self.missing: list[str] = []
        self._patches = self._plan()

    def _wrap(self, layer: str, name: str, fn, items):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0, 0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, 0, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = 1
                raise
            finally:
                span[END] = perf_counter_ns()
                tracer.stack.pop()
            if items is not None:
                span[ITEMS] = items(tracer, args, kwargs, result)
            return result

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "biokex" or n.startswith("biokex.")]
        patches = []
        for layer, dotted, items in TARGETS:
            module_name, *path = dotted.split(".")
            owner = importlib.import_module(f"biokex.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            attr = path[-1]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(dotted)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, dotted, raw.__func__, items))
                patches.append((owner, attr, raw, wrapped))
            elif isinstance(owner, type):
                patches.append((owner, attr, raw, self._wrap(layer, dotted, raw, items)))
            else:
                wrapper = self._wrap(layer, dotted, raw, items)
                # every module-level name the function is imported under
                for module in modules:
                    for name, value in vars(module).items():
                        if value is raw:
                            patches.append((module, name, raw, wrapper))
        return patches

    def forget_keys(self) -> None:
        """Count every key as fresh again: for a workload that empties the
        arrangement cache itself before each op."""
        self.seen_tokens.clear()

    @contextmanager
    def recording(self, op):
        """Record spans for one op (``op`` is an int, or "setup")."""
        self.op = op
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.op = None


def _self_times(spans: list[list]) -> list[int]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, op_ns: dict[int, int], n_setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    ``op_ns`` maps each traced op id to its measured duration. Per-call
    percentiles use every span, set-up included; per-op counts are means and
    per-op times medians over the traced ops.
    """
    spans = tracer.spans
    own = _self_times(spans)
    ops = sorted(op_ns)

    def durations(name: str) -> list[int]:
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def per_op(select, value) -> list[float]:
        acc = {op: 0.0 for op in ops}
        for i, s in enumerate(spans):
            if s[OP] in acc and select(i, s):
                acc[s[OP]] += value(i, s)
        return [acc[op] for op in ops]

    def by_name(*names):
        return lambda i, s: s[NAME] in names

    def by_layer(layer):
        return lambda i, s: s[LAYER] == layer

    def calls(select) -> float:
        values = per_op(select, lambda i, s: 1)
        return statistics.fmean(values) if values else 0.0

    def items(select) -> float:
        values = per_op(select, lambda i, s: s[ITEMS])
        return statistics.fmean(values) if values else 0.0

    def busy_ns(select) -> float:
        return _p50(per_op(select, lambda i, s: own[i]))

    # evaluation.templates: templates built under an evaluation call
    under_eval = [False] * len(spans)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        under_eval[i] = parent >= 0 and (under_eval[parent] or spans[parent][LAYER] == "evaluation")

    permutes = calls(by_name("transform.permute"))
    setup_keygens = sum(1 for s in spans if s[OP] == "setup" and s[NAME] == "ca.RsaKeyPair.generate")
    total_op_ns = sum(op_ns.values()) or 1
    ms, us, s_ = 1e-6, 1e-3, 1e-9

    m: dict[str, tuple[float, str]] = {
        "minutiae.perturb_ms_p50": (_p50(durations("minutiae.perturb")) * ms, "ms"),
        "minutiae.busy_s": (busy_ns(by_layer("minutiae")) * s_, "s"),
        "features.extract_calls": (calls(by_name("features.extract_features")), "count"),
        "features.extract_ms_p50": (_p50(durations("features.extract_features")) * ms, "ms"),
        "features.busy_s": (busy_ns(by_layer("features")) * s_, "s"),
        "transform.permute_calls": (permutes, "count"),
        "transform.permute_ms_p50": (_p50(durations("transform.permute")) * ms, "ms"),
        "transform.busy_s": (busy_ns(by_layer("transform")) * s_, "s"),
        "transform.fresh_key_share": (
            items(by_name("transform.permute")) / permutes if permutes else 0.0, "ratio"),
        "keyagree.modexp_calls": (
            calls(by_name("keyagree.public_key", "keyagree.shared_secret")), "count"),
        "keyagree.public_key_ms_p50": (_p50(durations("keyagree.public_key")) * ms, "ms"),
        "keyagree.shared_secret_ms_p50": (_p50(durations("keyagree.shared_secret")) * ms, "ms"),
        "keyagree.derive_us_p50": (_p50(durations("keyagree.derive_private_key")) * us, "us"),
        "keyagree.busy_s": (busy_ns(by_layer("keyagree")) * s_, "s"),
        "ca.keygen_calls": (setup_keygens / n_setups if n_setups else 0.0, "count"),
        "ca.keygen_s": (_p50(durations("ca.RsaKeyPair.generate")) * s_, "s"),
        "ca.verify_calls": (calls(by_name("ca.verify_certificate")), "count"),
        "ca.verify_us_p50": (_p50(durations("ca.verify_certificate")) * us, "us"),
        "ca.enroll_ms": (_p50(durations("ca.CaRegistry.enroll")) * ms, "ms"),
        "protocol.seal_us_p50": (_p50(durations("protocol.SessionEndpoint.seal")) * us, "us"),
        "protocol.open_us_p50": (_p50(durations("protocol.SessionEndpoint.open")) * us, "us"),
        "protocol.sealed_bytes": (items(by_name("protocol.SessionEndpoint.seal")), "bytes"),
        "protocol.open_rejects": (calls(
            lambda i, s: s[NAME] == "protocol.SessionEndpoint.open" and s[ERROR]), "count"),
        "protocol.aborts": (items(by_name("protocol.SessionEndpoint.close")), "count"),
        "protocol.busy_s": (busy_ns(by_layer("protocol")) * s_, "s"),
        "netsim.self_ms_p50": (busy_ns(by_layer("netsim")) * ms, "ms"),
        "netsim.frames": (calls(by_name("netsim.Channel.deliver")), "count"),
        "netsim.frame_bytes": (items(by_name("netsim.Channel.deliver")), "bytes"),
        "netsim.knows_calls": (calls(by_name("netsim.AdversaryPolicy.knows")), "count"),
        "netsim.knows_busy_s": (busy_ns(by_name("netsim.AdversaryPolicy.knows")) * s_, "s"),
        "evaluation.templates": (calls(
            lambda i, s: s[NAME] == "pipeline.revocable_template" and under_eval[i]), "count"),
        "evaluation.comparisons": (items(by_name("evaluation.template_similarity_scores")), "count"),
        "evaluation.score_self_s": (
            busy_ns(by_name("evaluation.template_similarity_scores")) * s_, "s"),
        "evaluation.roc_s": (busy_ns(by_name("evaluation.compute_roc", "evaluation.eer")) * s_, "s"),
        "pipeline.keypair_ms_p50": (_p50(durations("pipeline.keypair_from_minutiae")) * ms, "ms"),
        "pipeline.self_ms": (busy_ns(by_layer("pipeline")) * ms, "ms"),
        "cli.self_s": (busy_ns(by_layer("cli")) * s_, "s"),
    }
    for layer in LAYERS:
        layer_ns = sum(own[i] for i, s in enumerate(spans) if s[OP] in op_ns and s[LAYER] == layer)
        m[f"{layer}.share"] = (layer_ns / total_op_ns, "ratio")
    m["trace.spans_per_op"] = (calls(lambda i, s: True), "count")
    return m

