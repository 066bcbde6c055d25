"""Arithmetic of the served-cache benchmark, kept free of I/O so that the
self-test can check it on hand-made numbers.

Aggregation: a run holds several loadgen rounds, each summarised by
loadgen itself; the run reports the median round. On a shared host,
interference only ever makes a round slower, and the median ignores it
until it hits half the rounds.

Accounting (traced run): T, the traced client time per request, is the sum
of the client's batch spans (send to reply, one per v2 request id) divided
by the requests. It is split into self times measured independently:

    net.client_send     client encode + send syscall (client spans)
    net.decode/queue/flush   server stage sums from METRICS
    runtime.apply_gap   served apply stage minus in-process apply_batch
    runtime.self        in-process apply_batch minus the peeled cache
    cache.self          peeled SetAssociativeCache minus its GMM scoring
    gmm.self            timed ScorerKernel calls through the policy callbacks

and unexplained_ns_per_req = T - (sum of the above): loopback transfer,
reply wake-ups, replies waiting for a sibling batch's flush, the client's
receive path, and stage time shared by several batches but counted once.
"""

import statistics

# Server stage histograms, in the order a request crosses them.
STAGES = ("decode", "queue", "apply", "flush")

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "net.decode_ns_per_req": "ns",
    "net.queue_ns_per_req": "ns",
    "net.apply_ns_per_req": "ns",
    "net.flush_ns_per_req": "ns",
    "net.outside_server_ns_per_req": "ns",
    "net.client_send_ns_per_req": "ns",
    "net.replies_per_writev": "count",
    "net.protocol_errors": "count",
    "runtime.apply_batch_ns_per_req": "ns",
    "runtime.self_ns_per_req": "ns",
    "runtime.scaling_2t": "ratio",
    "runtime.apply_gap_ns_per_req": "ns",
    "cache.access_ns_per_req": "ns",
    "cache.self_ns_per_req": "ns",
    "cache.miss_rate": "ratio",
    "cache.bypass_rate": "ratio",
    "cache.dirty_evictions_per_kreq": "count",
    "gmm.scored_pages_per_req": "count",
    "gmm.ns_per_scored_page": "ns",
    "gmm.self_ns_per_req": "ns",
    "trace.generate_s": "s",
    "core.train_s": "s",
    "core.threshold_s": "s",
    "obs.trace_overhead": "ratio",
    "traced_ns_per_req": "ns",
    "unexplained_ns_per_req": "ns",
}

SELF_TIMES = (
    "net.client_send_ns_per_req",
    "net.decode_ns_per_req",
    "net.queue_ns_per_req",
    "net.flush_ns_per_req",
    "runtime.apply_gap_ns_per_req",
    "runtime.self_ns_per_req",
    "cache.self_ns_per_req",
    "gmm.self_ns_per_req",
)


def ratio(num, den):
    return num / den if den else 0.0


def derive_layers(client, probe, untraced_rps, traced_rps):
    """Per-layer metrics from one traced run.

    client: perfbench_probe `client` output (spans + server METRICS).
    probe: perfbench_probe `layers` output (in-process peeled timings).
    untraced_rps / traced_rps: loadgen throughput against a daemon with
    tracing off / on (--trace-sample 0 / 1).
    """
    m = client["metrics"]
    served = m["icgmm_server_requests_served"]
    out = {}
    for stage in STAGES:
        out[f"net.{stage}_ns_per_req"] = ratio(
            m[f"icgmm_server_stage_{stage}_ns_sum"], served)
    traced = ratio(client["span_ns"], client["requests"])
    out["traced_ns_per_req"] = traced
    out["net.outside_server_ns_per_req"] = traced - sum(
        out[f"net.{stage}_ns_per_req"] for stage in STAGES)
    out["net.client_send_ns_per_req"] = ratio(client["send_ns"],
                                              client["requests"])
    out["net.replies_per_writev"] = ratio(m["icgmm_server_writev_replies"],
                                          m["icgmm_server_writev_calls"])
    out["net.protocol_errors"] = m["icgmm_server_protocol_errors"]

    n = probe["requests"]
    out["gmm.scored_pages_per_req"] = ratio(probe["gmm.scored_pages"], n)
    out["gmm.ns_per_scored_page"] = ratio(probe["gmm.ns"],
                                          probe["gmm.scored_pages"])
    out["gmm.self_ns_per_req"] = ratio(probe["gmm.ns"], n)
    out["cache.access_ns_per_req"] = ratio(probe["cache.ns"], n)
    out["cache.self_ns_per_req"] = (out["cache.access_ns_per_req"] -
                                    out["gmm.self_ns_per_req"])
    window = probe["cache.window_accesses"]
    out["cache.miss_rate"] = ratio(probe["cache.window_misses"], window)
    out["cache.bypass_rate"] = ratio(probe["cache.window_bypasses"], window)
    out["cache.dirty_evictions_per_kreq"] = 1000.0 * ratio(
        probe["cache.window_dirty_evictions"], window)
    out["runtime.apply_batch_ns_per_req"] = ratio(probe["runtime.apply_ns"], n)
    out["runtime.self_ns_per_req"] = (out["runtime.apply_batch_ns_per_req"] -
                                      out["cache.access_ns_per_req"])
    out["runtime.scaling_2t"] = ratio(probe["runtime.wall_1t_ns"],
                                      probe["runtime.wall_2t_ns"])
    out["runtime.apply_gap_ns_per_req"] = (out["net.apply_ns_per_req"] -
                                           out["runtime.apply_batch_ns_per_req"])
    for key in ("trace.generate_s", "core.train_s", "core.threshold_s"):
        out[key] = probe[key]
    out["obs.trace_overhead"] = 1.0 - ratio(traced_rps, untraced_rps)
    out["unexplained_ns_per_req"] = traced - sum(out[k] for k in SELF_TIMES)
    return out


def accounting_error(layers):
    """|self times + unexplained - traced| as a share of the traced time."""
    total = sum(layers[k] for k in SELF_TIMES) + layers["unexplained_ns_per_req"]
    traced = layers["traced_ns_per_req"]
    return abs(total - traced) / traced if traced else float("inf")


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, ratio(q3 - q1, q2)
