"""Per-flow span forensics: hop-by-hop timelines with tail sampling.

Aggregate metrics (percentiles, per-port counters) say *that* the tail
is slow; this module answers *why this flow* was slow.  A
:class:`SpanBuffer` installs as the run's trace sink and assembles every
flow's trace points — queue entries with depth/ECN/wait, balancer
reroutes, RTOs, out-of-order arrivals, drops — into a per-flow span.

Keeping full hop detail for every flow is unaffordable, so the buffer
does **deterministic tail sampling**:

* every flow gets a cheap *skeleton* (aggregate counters: total queue
  wait, waits attributed to the flow it sat behind, drop/ooo/RTO
  counts, ports visited);
* full hop timelines are retained only for (a) a seeded hash sample of
  flows, (b) the top-K slowest flows per size class, and (c) any flow a
  fault touched (a fault-reason drop, or the flow traversed a port named
  in a fault event before completing).

Retention is a pure function of the experiment seed: the hash sample is
order-independent, top-K eviction tie-breaks on flow id, and the saved
file is serialized with sorted keys (gzip with ``mtime=0``), so two
seeded runs produce byte-identical span files.

The span file (``*.spans.json`` / ``.gz``) feeds ``repro explain``, the
report's "Tail forensics" section, and span-aware ``repro diff`` columns
via :func:`load_spans`, :func:`format_explain`, and :func:`summary_row`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import Counter
from heapq import heappush, heapreplace
from pathlib import Path
from typing import Any, Optional

from repro.core.granularity_calculator import DECISION_FIELDS
from repro.errors import ConfigError
from repro.metrics.fct import is_short
from repro.sim.trace import Tracer
from repro.units import KB

__all__ = [
    "SpanBuffer",
    "FlowSpan",
    "load_spans",
    "format_explain",
    "explain_payload",
    "summary_row",
    "tail_flows",
]

FORMAT = "repro-spans-v1"

#: FCT components the classifier attributes time to, in tie-break order
COMPONENTS = ("queueing", "retransmit", "reorder", "reroute")


def _sample_fraction(seed: int, flow_id: int) -> float:
    """Deterministic, order-independent per-flow hash in [0, 1)."""
    digest = hashlib.sha256(f"{seed}:{flow_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FlowSpan:
    """One flow's forensic record: skeleton aggregates + optional hops."""

    __slots__ = (
        "flow_id", "hops", "truncated_hops", "retained",
        "queue_wait_s", "queue_busy_s", "queue_busy_until",
        "behind", "pending_head",
        "enqueues", "dequeues", "drops", "drop_reasons", "fault_drop",
        "ecn_marks", "reroutes", "retransmits", "rtos", "rto_wait_s",
        "ooo", "ack_events", "ports", "port_wait", "size_class", "fct",
    )

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        #: full hop timeline [(t, kind, fields)] — None once downgraded
        self.hops: Optional[list] = []
        self.truncated_hops = 0
        #: why the full timeline was kept: "sampled" | "tail" | "fault" | None
        self.retained: Optional[str] = None
        #: summed per-packet waits (packet-seconds; many packets of one
        #: flow wait concurrently, so this can far exceed the FCT)
        self.queue_wait_s = 0.0
        #: wall-clock union of "at least one packet of this flow is
        #: waiting in some queue" — the FCT-comparable queueing measure
        self.queue_busy_s = 0.0
        self.queue_busy_until = 0.0
        #: (head_flow, port) -> seconds spent queued behind that flow
        self.behind: Counter = Counter()
        #: (port, seq) -> head flow at enqueue, awaiting the dequeue wait
        self.pending_head: dict = {}
        self.enqueues = 0
        self.dequeues = 0
        self.drops = 0
        self.drop_reasons: Counter = Counter()
        self.fault_drop = False
        self.ecn_marks = 0
        self.reroutes = 0
        self.retransmits = 0
        self.rtos = 0
        self.rto_wait_s = 0.0
        self.ooo = 0
        self.ack_events = 0
        self.ports: set = set()
        #: port -> summed data-direction queue wait (the per-hop timings)
        self.port_wait: Counter = Counter()
        self.size_class: Optional[str] = None
        self.fct: Optional[float] = None

    def downgrade(self) -> None:
        """Drop the full timeline, keeping only the skeleton."""
        self.hops = None
        self.truncated_hops = 0
        self.retained = None
        self.pending_head.clear()


class SpanBuffer(Tracer):
    """Bounded per-flow span assembly with deterministic tail sampling.

    Installs as the fabric's trace sink (possibly tee'd with other
    sinks); ``qth`` records become the per-switch decision rows.  Call
    :meth:`attach` with the flow registry, and :meth:`finalize` when the
    run ends; :meth:`save` then writes the deterministic span file.

    Parameters
    ----------
    seed:
        The experiment seed; the retention sample is a pure function of
        ``(seed, flow_id)``.
    sample_rate:
        Fraction of flows whose full timeline is kept unconditionally.
    top_k:
        Slowest flows per size class (short/long) kept in full.
    short_threshold:
        Size boundary between the two classes, bytes.
    max_hops:
        Per-flow timeline bound; later events are counted, not stored.
    max_decisions:
        Per-switch bound on recorded ``q_th`` decisions.
    """

    enabled = True

    def __init__(
        self,
        seed: int,
        *,
        sample_rate: float = 0.02,
        top_k: int = 5,
        short_threshold: int = KB(100),
        max_hops: int = 256,
        max_decisions: int = 4096,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigError(f"sample_rate must be in [0, 1], got {sample_rate!r}")
        if top_k < 0 or max_hops < 1 or max_decisions < 1:
            raise ConfigError("top_k must be >= 0; max_hops/max_decisions >= 1")
        self.seed = int(seed)
        self.sample_rate = float(sample_rate)
        self.top_k = int(top_k)
        self.short_threshold = int(short_threshold)
        self.max_hops = int(max_hops)
        self.max_decisions = int(max_decisions)
        self._flows: dict[int, FlowSpan] = {}
        #: flow-less records: the fault timeline [(t, kind, fields)]
        self._events: list = []
        #: union of directed port names named by fault events so far
        self._fault_ports: set = set()
        #: node -> [(t, decision-dict)], bounded
        self._decisions: dict[str, list] = {}
        self._decisions_dropped: Counter = Counter()
        #: size class -> min-heap of (fct, flow_id) tail candidates
        self._topk: dict[str, list] = {"short": [], "long": []}
        self._registry = None
        self.data: Optional[dict] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, registry) -> "SpanBuffer":
        """Subscribe to flow completions."""
        self._registry = registry
        registry.subscribe_completion(self._on_completion)
        return self

    # -- the sink ----------------------------------------------------------

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        # Hot path: one call per enqueue/dequeue of every packet in the
        # run.  Bind the lookup method once and order branches by
        # frequency — this is most of the spans-on overhead.
        get = fields.get
        flow_id = get("flow")
        if flow_id is None:
            if kind == "qth":
                node = fields["node"]
                rows = self._decisions.setdefault(node, [])
                if len(rows) >= self.max_decisions:
                    self._decisions_dropped[node] += 1
                else:
                    row = {"t": time}
                    row.update((key, fields[key]) for key in DECISION_FIELDS)
                    rows.append(row)
                return
            # Flow-less record: a fault transition (or future global kind).
            self._events.append((time, kind, fields))
            ports = get("ports")
            if ports:
                self._fault_ports.update(ports)
            return
        span = self._flows.get(flow_id)
        if span is None:
            span = self._flows[flow_id] = FlowSpan(flow_id)
        if get("is_ack"):
            # ACK-direction queue events: counted, never in the timeline
            # (they double the volume and rarely explain a tail).
            span.ack_events += 1
            return
        if kind == "enqueue":
            span.enqueues += 1
            head = get("head")
            if head is not None and head != flow_id:
                span.pending_head[(get("port"), get("seq"))] = head
        elif kind == "dequeue":
            span.dequeues += 1
            wait = get("wait", 0.0)
            port = get("port")
            span.queue_wait_s += wait
            if wait > 0:
                # Incremental interval union over [time - wait, time].
                # Dequeues arrive in time order, so tracking the covered
                # watermark gives the union in O(1) per event (slightly
                # undercounting only when a long wait at one hop fully
                # encloses earlier waits at another).
                start = time - wait
                busy_until = span.queue_busy_until
                if time > busy_until:
                    span.queue_busy_s += time - (
                        start if start > busy_until else busy_until)
                    span.queue_busy_until = time
            span.ports.add(port)
            span.port_wait[port] += wait
            if span.pending_head:
                head = span.pending_head.pop((port, get("seq")), None)
                if head is not None:
                    span.behind[(head, port)] += wait
        elif kind == "drop":
            span.drops += 1
            reason = get("reason")
            if get("injected"):
                reason = "injected_loss"
            if reason:
                span.drop_reasons[reason] += 1
                if reason in ("link_down", "injected_loss"):
                    span.fault_drop = True
            span.ports.add(get("port"))
        elif kind == "mark":
            span.ecn_marks += 1
        elif kind == "reroute":
            span.reroutes += 1
        elif kind == "retransmit":
            span.retransmits += 1
        elif kind == "rto":
            span.rtos += 1
            span.rto_wait_s += get("waited", 0.0)
        elif kind == "ooo":
            span.ooo += 1
        hops = span.hops
        if hops is not None:
            if len(hops) < self.max_hops:
                hops.append((time, kind, fields))
            else:
                span.truncated_hops += 1

    # -- retention ---------------------------------------------------------

    def _is_sampled(self, flow_id: int) -> bool:
        return _sample_fraction(self.seed, flow_id) < self.sample_rate

    def _fault_affected(self, span: FlowSpan) -> bool:
        return span.fault_drop or bool(span.ports & self._fault_ports)

    def _on_completion(self, stats) -> None:
        span = self._flows.get(stats.flow.id)
        if span is None:
            span = self._flows[stats.flow.id] = FlowSpan(stats.flow.id)
        span.fct = stats.fct
        cls = ("short" if is_short(stats.flow.size, self.short_threshold)
               else "long")
        span.size_class = cls
        if span.hops is None:
            return
        if self._is_sampled(span.flow_id):
            span.retained = "sampled"
            return
        if self._fault_affected(span):
            span.retained = "fault"
            return
        heap = self._topk[cls]
        item = (span.fct if span.fct is not None else 0.0, span.flow_id)
        if len(heap) < self.top_k:
            heappush(heap, item)
            span.retained = "tail"
        elif item > heap[0]:
            _, evicted = heapreplace(heap, item)
            self._flows[evicted].downgrade()
            span.retained = "tail"
        else:
            span.downgrade()

    # -- finalization ------------------------------------------------------

    def finalize(self, horizon: Optional[float] = None) -> dict:
        """Freeze the buffer into the serializable span document."""
        registry = self._registry
        for span in self._flows.values():
            if span.size_class is None and registry is not None:
                # Incomplete flow: classify from the descriptor and apply
                # the retention policy now that all faults are known.
                try:
                    flow = registry.flow(span.flow_id)
                except Exception:
                    flow = None
                if flow is not None:
                    span.size_class = (
                        "short" if is_short(flow.size, self.short_threshold)
                        else "long")
            if span.size_class is None and span.retained is None and span.hops is not None:
                # No registry to consult (unit-test use): sample-only policy.
                if self._is_sampled(span.flow_id):
                    span.retained = "sampled"
                elif self._fault_affected(span):
                    span.retained = "fault"
                else:
                    span.downgrade()
            elif span.fct is None and span.hops is not None and span.retained is None:
                if self._is_sampled(span.flow_id):
                    span.retained = "sampled"
                elif self._fault_affected(span):
                    span.retained = "fault"
                else:
                    span.downgrade()

        flows_doc = {}
        for fid in sorted(self._flows):
            flows_doc[str(fid)] = self._flow_doc(self._flows[fid])

        totals = self._totals()
        self.data = {
            "format": FORMAT,
            "seed": self.seed,
            "policy": {
                "sample_rate": self.sample_rate,
                "top_k": self.top_k,
                "short_threshold": self.short_threshold,
                "max_hops": self.max_hops,
            },
            "horizon": horizon,
            "events": [
                dict({"t": t, "kind": kind}, **fields)
                for (t, kind, fields) in self._events
            ],
            "decisions": {
                node: rows for node, rows in sorted(self._decisions.items())
            },
            "decisions_dropped": dict(sorted(self._decisions_dropped.items())),
            "flows": flows_doc,
            "totals": totals,
        }
        return self.data

    def _flow_doc(self, span: FlowSpan) -> dict:
        stats = None
        if self._registry is not None:
            try:
                stats = self._registry.stats(span.flow_id)
            except Exception:
                stats = None
        doc: dict[str, Any] = {
            "class": span.size_class,
            "fct": span.fct,
            "queue_wait_s": span.queue_wait_s,
            "queue_busy_s": span.queue_busy_s,
            "enqueues": span.enqueues,
            "dequeues": span.dequeues,
            "drops": span.drops,
            "drop_reasons": dict(sorted(span.drop_reasons.items())),
            "ecn_marks": span.ecn_marks,
            "reroutes": span.reroutes,
            "retransmits": span.retransmits,
            "rtos": span.rtos,
            "rto_wait_s": span.rto_wait_s,
            "ooo": span.ooo,
            "ack_events": span.ack_events,
            "fault_affected": self._fault_affected(span),
            "retained": span.retained,
        }
        if stats is not None:
            doc["size"] = stats.flow.size
            doc["start"] = stats.flow.start_time
            doc["src"] = stats.flow.src
            doc["dst"] = stats.flow.dst
            doc["fast_recoveries"] = stats.fast_recoveries
            doc["timeouts"] = stats.timeouts
        doc["attribution"] = _attribute(doc, stats)
        # "queued behind flow X on port P": the top waits, determinis-
        # tically ordered (largest wait first, then flow id, then port).
        behind = sorted(
            span.behind.items(), key=lambda kv: (-kv[1], kv[0][0], str(kv[0][1]))
        )[:5]
        doc["behind"] = [
            {"flow": head, "port": port, "wait_s": wait}
            for (head, port), wait in behind
        ]
        doc["port_wait"] = {
            str(port): wait for port, wait in sorted(span.port_wait.items(),
                                                     key=lambda kv: str(kv[0]))
        }
        if span.hops is not None:
            doc["hops"] = [
                dict({"t": t, "kind": kind}, **fields)
                for (t, kind, fields) in span.hops
            ]
            doc["truncated_hops"] = span.truncated_hops
        return doc

    def _totals(self) -> dict:
        comp_sums = {c: 0.0 for c in COMPONENTS}
        fct_sum = 0.0
        completed = 0
        dominant: Counter = Counter()
        retained: Counter = Counter()
        for span in self._flows.values():
            if span.retained is not None:
                retained[span.retained] += 1
        # Component sums come from the per-flow docs so they match what
        # the file reports flow-by-flow.
        for fid in sorted(self._flows):
            span = self._flows[fid]
            if span.fct is None:
                continue
            completed += 1
            fct_sum += span.fct
            stats = None
            if self._registry is not None:
                try:
                    stats = self._registry.stats(fid)
                except Exception:
                    stats = None
            attr = _attribute(
                {
                    "fct": span.fct,
                    "queue_wait_s": span.queue_wait_s,
                    "queue_busy_s": span.queue_busy_s,
                    "rto_wait_s": span.rto_wait_s,
                    "drops": span.drops,
                    "reroutes": span.reroutes,
                    "ooo": span.ooo,
                    "retransmits": span.retransmits,
                },
                stats,
            )
            for c in COMPONENTS:
                comp_sums[c] += attr["components"][c]
            dominant[attr["dominant"]] += 1
        shares = {
            c: (comp_sums[c] / fct_sum if fct_sum > 0 else 0.0) for c in COMPONENTS
        }
        return {
            "flows": len(self._flows),
            "completed": completed,
            "fct_sum": fct_sum,
            "components_s": comp_sums,
            "shares": shares,
            "dominant": dict(sorted(dominant.items())),
            "retained": dict(sorted(retained.items())),
        }

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the finalized span document, byte-identical per seed."""
        if self.data is None:
            self.finalize()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        if path.suffix == ".gz":
            with path.open("wb") as fh:
                # mtime=0 keeps the compressed bytes reproducible.
                with gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
                    gz.write(payload.encode("utf-8"))
        else:
            path.write_text(payload + "\n")
        return path

    def extras(self) -> dict:
        """Compact summary for ``RunMetrics.extras['spans']``."""
        if self.data is None:
            self.finalize()
        totals = self.data["totals"]
        return {
            "flows": totals["flows"],
            "retained": totals["retained"],
            "shares": {k: round(v, 6) for k, v in totals["shares"].items()},
            "dominant": totals["dominant"],
        }


# -- attribution -----------------------------------------------------------


def _attribute(doc: dict, stats=None) -> dict:
    """Split one flow's FCT into named components, deterministically.

    * ``queueing``: wall-clock union of intervals during which at least
      one of the flow's data packets was waiting in a queue (the summed
      per-packet waits overcount — a window of packets waits
      concurrently).
    * recovery time (RTO waits plus one handshake-RTT per fast-recovery
      episode) is labeled ``retransmit`` when the flow saw genuine
      drops, ``reroute`` when a path switch caused the reordering that
      triggered it, and ``reorder`` otherwise.
    * the residual (serialization + propagation) is ``transfer``.

    ``dominant`` is the largest of the four named components, ties
    broken in :data:`COMPONENTS` order; a flow with no named time is
    ``transfer``-dominated.
    """
    fct = doc.get("fct")
    queue_s = doc.get("queue_busy_s", doc.get("queue_wait_s", 0.0))
    rto_s = doc.get("rto_wait_s", 0.0)
    rtt0 = 0.0
    fast_recoveries = 0
    if stats is not None:
        fast_recoveries = stats.fast_recoveries
        if stats.established is not None and stats.syn_sent is not None:
            rtt0 = stats.established - stats.syn_sent
    recovery_s = rto_s + fast_recoveries * rtt0
    components = {c: 0.0 for c in COMPONENTS}
    components["queueing"] = queue_s
    if recovery_s > 0:
        if doc.get("drops", 0) > 0:
            components["retransmit"] = recovery_s
        elif doc.get("reroutes", 0) > 0:
            components["reroute"] = recovery_s
        else:
            components["reorder"] = recovery_s
    dominant = "transfer"
    best = 0.0
    for c in COMPONENTS:
        if components[c] > best:
            best = components[c]
            dominant = c
    transfer = None
    if fct is not None:
        transfer = max(0.0, fct - sum(components.values()))
    shares = None
    if fct is not None and fct > 0:
        shares = {c: components[c] / fct for c in COMPONENTS}
    return {
        "components": components,
        "transfer": transfer,
        "dominant": dominant,
        "shares": shares,
    }


# -- loading and presentation ----------------------------------------------


def load_spans(path: str | Path) -> dict:
    """Read a span document written by :meth:`SpanBuffer.save`."""
    from repro.obs.tracers import open_trace_text

    path = Path(path)
    try:
        with open_trace_text(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable span file: {exc}") from None
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != FORMAT:
        raise ConfigError(f"{path}: not a span file (format={fmt!r})")
    return data


def tail_flows(data: dict, n: int) -> list[tuple[int, dict]]:
    """The ``n`` slowest completed flows, slowest first (stable order)."""
    rows = [
        (int(fid), doc) for fid, doc in data["flows"].items()
        if doc.get("fct") is not None
    ]
    rows.sort(key=lambda r: (-r[1]["fct"], r[0]))
    return rows[:n]


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def _fmt_size(nbytes: Optional[int]) -> str:
    if nbytes is None:
        return "?"
    if nbytes >= 1_000_000:
        return f"{nbytes / 1e6:.1f} MB"
    return f"{nbytes / 1e3:.1f} KB"


def _flow_lines(fid: int, doc: dict, *, hops: int = 12) -> list[str]:
    attr = doc.get("attribution") or {}
    comps = attr.get("components") or {}
    shares = attr.get("shares") or {}
    head = (
        f"flow {fid} ({doc.get('class') or '?'}, {_fmt_size(doc.get('size'))})"
        f"  fct={_fmt_s(doc.get('fct'))}  dominant={attr.get('dominant', '?')}"
    )
    if doc.get("fault_affected"):
        head += "  [fault-affected]"
    lines = [head]
    comp_bits = []
    for c in COMPONENTS:
        v = comps.get(c, 0.0)
        if v > 0:
            pct = f" ({shares[c] * 100:.0f}%)" if shares and shares.get(c) else ""
            comp_bits.append(f"{c} {_fmt_s(v)}{pct}")
    if attr.get("transfer") is not None:
        comp_bits.append(f"transfer {_fmt_s(attr['transfer'])}")
    if comp_bits:
        lines.append("  components: " + " · ".join(comp_bits))
    counts = (
        f"  events: {doc.get('enqueues', 0)} enq · {doc.get('drops', 0)} drops"
        f" · {doc.get('ecn_marks', 0)} marks · {doc.get('ooo', 0)} ooo"
        f" · {doc.get('reroutes', 0)} reroutes · {doc.get('rtos', 0)} RTOs"
    )
    lines.append(counts)
    for b in doc.get("behind", [])[:3]:
        lines.append(
            f"  queued behind flow {b['flow']} for {_fmt_s(b['wait_s'])}"
            f" on {b['port']}"
        )
    port_wait = doc.get("port_wait") or {}
    if port_wait:
        ordered = sorted(port_wait.items(), key=lambda kv: (-kv[1], kv[0]))
        hop_bits = [f"{port} {_fmt_s(wait)}" for port, wait in ordered[:4] if wait > 0]
        if hop_bits:
            lines.append("  per-hop wait (summed per-packet): " + " · ".join(hop_bits))
    timeline = doc.get("hops")
    if timeline:
        lines.append(f"  timeline ({min(hops, len(timeline))} of "
                     f"{len(timeline) + doc.get('truncated_hops', 0)} events):")
        for ev in timeline[:hops]:
            where = ev.get("port") or ev.get("node") or ""
            detail = []
            for key in ("qlen", "wait", "head", "reason", "seq", "qth",
                        "from_port", "to_port", "regime", "waited", "expected"):
                if key in ev and ev[key] is not None:
                    val = ev[key]
                    if key in ("wait", "waited") and isinstance(val, float):
                        val = _fmt_s(val)
                    detail.append(f"{key}={val}")
            lines.append(
                f"    t={ev['t']:.6f}  {ev['kind']:<10} {where}  "
                + " ".join(detail)
            )
    return lines


def explain_payload(
    data: dict, *, flow: Optional[int] = None, tail: int = 5
) -> dict:
    """The machine-readable slice ``repro explain --format json`` emits."""
    if flow is not None:
        doc = data["flows"].get(str(flow))
        if doc is None:
            raise ConfigError(f"flow {flow} not present in span file")
        flows = [{"flow": flow, **doc}]
    else:
        flows = [{"flow": fid, **doc} for fid, doc in tail_flows(data, tail)]
    return {
        "format": FORMAT,
        "seed": data.get("seed"),
        "totals": data.get("totals"),
        "events": data.get("events"),
        "flows": flows,
    }


def format_explain(
    data: dict, *, flow: Optional[int] = None, tail: int = 5, hops: int = 12
) -> str:
    """Human-readable causal timelines for one flow or the tail set."""
    lines: list[str] = []
    totals = data.get("totals") or {}
    shares = totals.get("shares") or {}
    share_bits = " · ".join(
        f"{c} {shares.get(c, 0.0) * 100:.1f}%" for c in COMPONENTS
    )
    lines.append(
        f"spans: {totals.get('flows', 0)} flows tracked, "
        f"{totals.get('completed', 0)} completed; FCT shares: {share_bits}"
    )
    events = data.get("events") or []
    if events:
        lines.append(f"faults ({len(events)}):")
        for ev in events:
            where = ev.get("node") or ""
            lines.append(f"  t={ev['t']:.6f}  {ev['kind']:<10} {where}")
    lines.append("")
    if flow is not None:
        doc = data["flows"].get(str(flow))
        if doc is None:
            raise ConfigError(f"flow {flow} not present in span file")
        lines.extend(_flow_lines(flow, doc, hops=hops))
    else:
        rows = tail_flows(data, tail)
        lines.append(f"top {len(rows)} tail flows:")
        lines.append("")
        for fid, doc in rows:
            lines.extend(_flow_lines(fid, doc, hops=hops))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def summary_row(data: dict) -> dict:
    """Span-derived diff columns: tail attribution shares for a run."""
    totals = data.get("totals") or {}
    shares = totals.get("shares") or {}
    retained = totals.get("retained") or {}
    # "n_flows"/"n_completed" hit repro.obs.diff's _NEUTRAL/_HIGHER_BETTER
    # substring conventions, so span columns diff with correct direction.
    row = {
        "name": "spans",
        "n_flows": totals.get("flows", 0),
        "n_completed": totals.get("completed", 0),
        "retained_full": sum(retained.values()),
    }
    for c in COMPONENTS:
        row[f"{c}_share"] = round(shares.get(c, 0.0), 6)
    dominant = totals.get("dominant") or {}
    if dominant:
        top = sorted(dominant.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        row["dominant"] = f"{top[0]}:{top[1]}"
    return row
