"""Outside-in layer tracing for one benchmark repetition.

Wraps the public entry points of each droughtnet module from outside the
package: the class attributes of kernel, stack, environment and backbone
classes, and the module-level function names in geometry, analytics,
runner and cli.  Nothing under ``src/`` changes and ``cfg.trace`` stays
off, so the simulator's own per-event trace list never grows.

Every wrapped call is a span.  A span's self time is its duration minus
the time of the spans it encloses, so the self times of all spans plus
the untraced remainder add up to the repetition's wall time.  Spans are
aggregated in memory per (phase, name) as [calls, total_s, self_s] and
read once when the repetition ends; a traced year of flooding makes
tens of millions of calls, too many to keep one record each.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    """Span aggregates of one repetition, plus the counters a span
    cannot give: the event queue's peak depth and the rows scanned."""

    def __init__(self):
        self.phase = "setup"
        self.spans: dict[tuple[str, str], list] = {}
        self.queue_peak = 0
        self.rows_scanned = 0
        self.speed: dict[str, float] = {}  # host speed per phase; times scale by it
        self._child_s = [0.0]  # enclosed span time, one slot per open span

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as span ``name``; returns its result."""
        child_s = self._child_s
        child_s.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            inner = child_s.pop()
            child_s[-1] += dt
            key = (self.phase, name)
            agg = self.spans.get(key)
            if agg is None:
                self.spans[key] = [1, dt, dt - inner]
            else:
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner

    def stat(self, name, phase=None, field=2):
        """Self seconds (field 2), total seconds (1) or calls (0) of
        ``name``, in one phase or summed over all of them.  Seconds are
        scaled by the phase's entry in ``speed`` (1 if it has none)."""
        return sum(agg[field] * (self.speed.get(ph, 1.0) if field else 1)
                   for (ph, nm), agg in self.spans.items()
                   if nm == name and (phase is None or ph == phase))


def _wrap(tracer, name, fn):
    call = tracer.call

    def wrapper(*args, **kwargs):
        return call(name, fn, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Patch every traced entry point.  Must run before build_scenario:
    Kernel.schedule binds ``entity.handle`` when it queues an event, and
    build_scenario binds ``LocalBaseStation.ingest`` as the sinks'
    collector."""
    from droughtnet import analytics, backbone, cli, geometry, kernel, runner, stack
    from droughtnet.environment import NodeSampler

    call = tracer.call
    Kernel = kernel.Kernel

    schedule = Kernel.schedule

    def traced_schedule(self, fire_at, target, payload):
        call("kernel.schedule", schedule, self, fire_at, target, payload)
        depth = self.pending()
        if depth > tracer.queue_peak:
            tracer.queue_peak = depth

    Kernel.schedule = traced_schedule
    Kernel.run_until = _wrap(tracer, "kernel.run_until", Kernel.run_until)

    handle = stack.SensorNode.handle
    Message, BroadcastFan = kernel.Message, stack.BroadcastFan
    WAKE, MAC_RETRY = stack.WAKE, stack.MAC_RETRY

    def traced_handle(self, payload):
        if type(payload) is Message:
            name = "stack.fan" if type(payload.body) is BroadcastFan else "stack.link"
        elif payload is WAKE:
            name = "stack.wake"
        elif payload is MAC_RETRY:
            name = "stack.mac_retry"
        else:
            name = "stack.other"
        return call(name, handle, self, payload)

    stack.SensorNode.handle = traced_handle
    stack.TransportLink.send = _wrap(tracer, "stack.transport.send", stack.TransportLink.send)
    NodeSampler.sample = _wrap(tracer, "environment.sample", NodeSampler.sample)

    backbone.LocalBaseStation.ingest = _wrap(tracer, "backbone.ingest",
                                             backbone.LocalBaseStation.ingest)
    Central = backbone.CentralDatabase
    Central.add = _wrap(tracer, "backbone.central_add", Central.add)

    to_csv = Central.to_csv_lines

    def traced_to_csv(self):
        lines = to_csv(self)
        while True:
            try:
                line = call("backbone.to_csv", next, lines)
            except StopIteration:
                return
            yield line

    Central.to_csv_lines = traced_to_csv
    from_csv = Central.__dict__["from_csv_lines"].__func__
    Central.from_csv_lines = classmethod(_wrap(tracer, "backbone.from_csv", from_csv))

    def scanning(name, fn):
        def wrapper(db, *args):
            out = call(name, fn, db, *args)
            tracer.rows_scanned += len(db)
            return out
        return wrapper

    traced = {
        "indicators_all": scanning("analytics.indicators_all", analytics.indicators_all),
        "evolve_all": scanning("analytics.evolve_all", analytics.evolve_all),
        "advect_forecast": _wrap(tracer, "analytics.advect_forecast", analytics.advect_forecast),
        "tile_region": _wrap(tracer, "geometry.tile_region", geometry.tile_region),
        "connectivity_check": _wrap(tracer, "geometry.connectivity_check",
                                    geometry.connectivity_check),
        "build_binary_tree": _wrap(tracer, "runner.build_binary_tree", runner.build_binary_tree),
    }
    # runner and cli import these by name, so their module globals are
    # replaced along with the defining module's
    for module in (analytics, geometry, runner, cli):
        for attr, fn in traced.items():
            if hasattr(module, attr):
                setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, report: dict) -> dict:
    """Per-layer figures of one traced repetition.  Times are self
    seconds unless the name says otherwise; ``backbone.from_csv_s``
    includes the CentralDatabase.add calls the CSV load makes."""
    stat = tracer.stat
    events = report["event_count"]
    regions = report["per_region"].values()
    delivered = sum(r["reports_delivered"] for r in regions)
    relay_dups = sum(r["duplicate_relay_drops"] for r in regions)
    adds = stat("backbone.central_add", "simulate", field=0)
    from_csv_s = stat("backbone.from_csv", field=1)
    out = {
        "kernel.events": events,
        "kernel.schedule_calls": stat("kernel.schedule", field=0),
        "kernel.schedule_s": stat("kernel.schedule"),
        "kernel.queue_peak": tracer.queue_peak,
        "kernel.dispatch_self_s": stat("kernel.run_until"),
    }
    for kind in ("wake", "mac_retry", "link", "fan"):
        out[f"stack.events.{kind}"] = stat(f"stack.{kind}", field=0)
        out[f"stack.{kind}_s"] = stat(f"stack.{kind}")
    out.update({
        "stack.mac_retry_share": out["stack.events.mac_retry"] / events,
        "stack.relay_useful_ratio": delivered / (delivered + relay_dups),
        "stack.frames_sent": sum(r["frames_sent"] for r in report["energy"]),
        "stack.frames_dropped": sum(r["frames_dropped"] for r in report["energy"]),
        "stack.transport.send_s": stat("stack.transport.send"),
        "environment.samples": stat("environment.sample", field=0),
        "environment.sample_s": stat("environment.sample"),
        "energy.tx_rx_mJ": report["total_tx_rx_mJ"],
        "geometry.tile_region_s": stat("geometry.tile_region"),
        "geometry.connectivity_check_s": stat("geometry.connectivity_check"),
        "runner.build_binary_tree_s": stat("runner.build_binary_tree"),
        "backbone.ingest_calls": stat("backbone.ingest", field=0),
        "backbone.ingest_s": stat("backbone.ingest"),
        "backbone.central_add_calls": adds,
        "backbone.central_add_s": stat("backbone.central_add", "simulate"),
        "backbone.central_duplicates": sum(r["central_duplicates"] for r in regions),
        "backbone.central_useful_ratio": report["record_count"] / adds,
        "backbone.to_csv_s": stat("backbone.to_csv"),
        "backbone.from_csv_s": from_csv_s,
        "backbone.from_csv_rows_per_s": report["record_count"] / from_csv_s,
        "analytics.indicators_all_s": stat("analytics.indicators_all"),
        "analytics.evolve_all_s": stat("analytics.evolve_all"),
        "analytics.advect_forecast_s": stat("analytics.advect_forecast"),
        "analytics.rows_scanned": tracer.rows_scanned,
        "runner.write_exports_self_s": stat("phase.write_exports"),
    })
    return out
