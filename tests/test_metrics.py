"""Trace metrics on hand-built records: report fields, series order, corruption
checks, the trace file round trip, and beacon outcome blocks against the
records they stand for."""

import io
import math

import pytest

from vanetbench.metrics import (EV_DROPPED, EV_FORWARDED, EV_RECEIVED, EV_SENT,
                                LAYER_APP, LAYER_MAC, LAYER_ROUTING, TRACE_HEADER,
                                Trace, TraceAggregator, TraceCorruptionError,
                                TraceFileWriter, average_throughput, build_report,
                                conservation_check, delay_series, jitter_series,
                                read_trace)

from conftest import TraceRecord, recording_trace


def add(agg, time, event, layer, kind, pid, flow, node, size, reason="none"):
    agg.add(time, event, reason, layer, kind, pid, flow, node, size)


def sent(agg, time, pid, flow, node=0, size=100):
    add(agg, time, EV_SENT, LAYER_APP, "cbr", pid, flow, node, size)


def received(agg, time, pid, flow, node=9, size=100):
    add(agg, time, EV_RECEIVED, LAYER_APP, "cbr", pid, flow, node, size)


def two_flows() -> TraceAggregator:
    """Flow 1 sends 3 x 100 B, flow 2 sends 2 x 200 B; 4 delivered, 1 lost.

    Deliveries (time, delay): flow 1 (1.1, 0.1) (2.3, 0.3); flow 2 (1.8, 0.3)
    (2.6, 0.1). Two cbr forwards, three 40 B control transmissions, and
    beacon (pbc) records that no cbr metric may count.
    """
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    sent(agg, 1.5, 10, 2, node=5, size=200)
    received(agg, 1.1, 1, 1)
    add(agg, 1.2, EV_SENT, LAYER_MAC, "routing-control", 500, None, 3, 40)
    add(agg, 1.6, EV_FORWARDED, LAYER_ROUTING, "cbr", 10, 2, 4, 200)
    received(agg, 1.8, 10, 2, size=200)
    sent(agg, 2.0, 2, 1)
    add(agg, 2.1, EV_FORWARDED, LAYER_ROUTING, "cbr", 2, 1, 4, 100)
    received(agg, 2.3, 2, 1)
    sent(agg, 2.5, 11, 2, node=5, size=200)
    received(agg, 2.6, 11, 2, size=200)
    add(agg, 2.7, EV_SENT, LAYER_MAC, "routing-control", 501, None, 3, 40)
    add(agg, 2.8, EV_SENT, LAYER_MAC, "routing-control", 502, None, 6, 40)
    sent(agg, 3.0, 3, 1)
    add(agg, 3.2, EV_DROPPED, LAYER_MAC, "cbr", 3, 1, 0, 100, reason="collision")
    add(agg, 1.0, EV_SENT, LAYER_APP, "pbc", 900, None, 7, 300)
    add(agg, 1.0, EV_SENT, LAYER_MAC, "pbc", 900, None, 7, 300)
    add(agg, 1.1, EV_RECEIVED, LAYER_APP, "pbc", 900, None, 8, 300)
    add(agg, 1.1, EV_DROPPED, LAYER_MAC, "pbc", 900, None, 2, 300, reason="fading")
    return agg


# -- the report ------------------------------------------------------------------

def test_report_fields_on_hand_built_records():
    r = build_report(two_flows(), duration=4.0)
    assert (r.sent, r.received, r.dropped) == (5, 4, 1)
    assert r.throughput_sent_bytes == 3 * 100 + 2 * 200
    assert r.throughput_recv_bytes == 2 * 100 + 2 * 200
    assert r.pdr == pytest.approx(80.0)
    assert r.drop_pct == pytest.approx(20.0)
    assert r.nrl == pytest.approx(3 / 4)                 # control tx per delivery
    assert r.mean_hop == pytest.approx(1.0 + 2 / 4)      # 1 + forwards / deliveries
    assert r.mean_hop_raw == pytest.approx(2 / 5)        # forwards / sent
    assert r.route_cost == pytest.approx(3 * 40 / 700)   # control bytes / data bytes
    # flow window: last receive 2.6 - first send 1.0
    assert r.avg_throughput_kbps == pytest.approx(600 * 8 / 1.6 / 1000)
    assert r.drops_by_reason == {"collision": 1}
    assert [name for name, _ in r.rows()] == [
        "sent", "received", "dropped", "throughput_sent_bytes", "throughput_recv_bytes",
        "pdr", "drop_pct", "avg_throughput_kbps", "nrl", "route_cost", "mean_hop",
        "mean_hop_raw"]


def test_throughput_spans_first_send_to_last_receive():
    assert average_throughput(two_flows()) == pytest.approx(600 * 8 / 1.6 / 1000)


def test_a_zero_length_delivery_window_has_no_throughput():
    # the only packet arrives at the instant it was sent
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    received(agg, 1.0, 1, 1)
    with pytest.raises(ValueError, match="zero-length throughput window"):
        average_throughput(agg)
    r = build_report(agg)
    assert r.pdr == pytest.approx(100.0) and r.avg_throughput_kbps is None


def test_report_without_deliveries():
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    add(agg, 1.5, EV_DROPPED, LAYER_ROUTING, "cbr", 1, 1, 0, 100, reason="no-route")
    r = build_report(agg)
    assert (r.sent, r.received, r.dropped) == (1, 0, 1)
    assert r.pdr == pytest.approx(0.0) and r.drop_pct == pytest.approx(100.0)
    assert r.nrl is None and r.mean_hop is None and r.avg_throughput_kbps is None
    assert r.mean_hop_raw == pytest.approx(0.0)
    assert r.route_cost == 0.0


def test_report_of_an_empty_trace():
    r = build_report(TraceAggregator())
    assert (r.sent, r.received, r.dropped) == (0, 0, 0)
    assert r.pdr is None and r.drop_pct is None and r.mean_hop_raw is None
    assert r.route_cost == 0.0                           # no control at all


def test_route_cost_is_infinite_with_control_but_no_data():
    agg = TraceAggregator()
    add(agg, 0.5, EV_SENT, LAYER_MAC, "routing-control", 1, None, 0, 48)
    assert build_report(agg).route_cost == math.inf


# -- delay and jitter series -------------------------------------------------------

def test_delay_series_is_ordered_by_receive_time_across_flows():
    got = delay_series(two_flows())
    assert [t for t, _ in got] == [1.1, 1.8, 2.3, 2.6]
    assert [d for _, d in got] == pytest.approx([0.1, 0.3, 0.3, 0.1])


def test_delay_series_breaks_receive_time_ties_by_flow():
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 2)
    sent(agg, 1.5, 2, 1)
    received(agg, 2.0, 1, 2)     # flow 2 is recorded first
    received(agg, 2.0, 2, 1)
    assert delay_series(agg) == [(2.0, 0.5), (2.0, 1.0)]


def test_delay_series_puts_a_delivery_without_a_flow_before_its_receive_time_ties():
    # a packet sent outside any cbr flow, as StaticNetwork.send_data sends by default
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 0)
    sent(agg, 1.5, 2, None)
    received(agg, 2.0, 1, 0)
    received(agg, 2.0, 2, None)
    assert delay_series(agg) == [(2.0, 0.5), (2.0, 1.0)]


def test_jitter_series_takes_differences_within_each_flow():
    got = jitter_series(two_flows())
    assert [t for t, _ in got] == [2.3, 2.6]
    assert [j for _, j in got] == pytest.approx([0.2, -0.2])


# -- corruption checks ----------------------------------------------------------------

def test_duplicate_send_is_corruption():
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    with pytest.raises(TraceCorruptionError, match="duplicate"):
        sent(agg, 1.2, 1, 1)


def test_receive_without_send_is_corruption():
    with pytest.raises(TraceCorruptionError, match="without matching send"):
        received(TraceAggregator(), 1.0, 1, 1)


def test_double_terminal_is_corruption():
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    received(agg, 1.1, 1, 1)
    with pytest.raises(TraceCorruptionError, match="terminated twice"):
        add(agg, 1.2, EV_DROPPED, LAYER_MAC, "cbr", 1, 1, 0, 100, reason="fading")
    agg = TraceAggregator()
    sent(agg, 1.0, 1, 1)
    add(agg, 1.2, EV_DROPPED, LAYER_MAC, "cbr", 1, 1, 0, 100, reason="fading")
    with pytest.raises(TraceCorruptionError, match="terminated twice"):
        received(agg, 1.3, 1, 1)


def test_conservation_check_counts_drops_by_reason():
    assert conservation_check(two_flows()) == {
        "sent": 5, "received": 4, "dropped": 1, "by_reason": {"collision": 1}}


def test_aggregator_reads_each_record_at_its_own_layer():
    agg = two_flows()
    # control is counted when the MAC sends it, cbr data when the app sends or
    # receives it; the same events at other layers move no byte or series
    add(agg, 3.3, EV_SENT, LAYER_ROUTING, "routing-control", 503, None, 3, 40)
    add(agg, 3.4, EV_RECEIVED, LAYER_MAC, "cbr", 3, 1, 9, 100)
    add(agg, 3.5, EV_SENT, LAYER_MAC, "cbr", 3, 1, 0, 100)
    assert (agg.control_tx, agg.control_tx_bytes) == (3, 120)
    assert len(agg.recv_events) == 4 and agg.cbr_recv_bytes == 600
    assert agg.cbr_sent_bytes == 700
    # drop reasons add up over every layer
    sent(agg, 4.0, 4, 1)
    add(agg, 4.1, EV_DROPPED, LAYER_ROUTING, "cbr", 4, 1, 4, 100, reason="collision")
    assert agg.drops_by_reason == {"cbr": {"collision": 2}, "pbc": {"fading": 1}}


def test_conservation_check_fails_on_an_unterminated_packet():
    agg = two_flows()
    sent(agg, 3.5, 4, 1)
    with pytest.raises(TraceCorruptionError, match="conservation violated"):
        conservation_check(agg)


def test_open_packets_are_the_unterminated_sends_by_pid():
    agg = two_flows()
    assert list(agg.open_packets()) == []
    sent(agg, 3.5, 12, 2, node=5, size=200)
    sent(agg, 3.6, 4, 1)
    assert list(agg.open_packets()) == [(4, 1, 0, 100), (12, 2, 5, 200)]


# -- trace file ------------------------------------------------------------------

def write_trace(path, records, *sinks):
    """Write `records` to a trace file at `path`, passing each to `sinks` too."""
    with open(path, "w", encoding="utf-8") as fh:
        trace = Trace()
        for sink in (*sinks, TraceFileWriter(fh)):
            trace.attach(sink)
        for record in records:
            trace.add(*record)


def test_trace_file_round_trip(tmp_path):
    """The re-read ledger equals a live one fed the same records, with times
    that need all 17 digits of their repr kept exact."""
    records = [
        (0.1 + 0.2, EV_SENT, "none", LAYER_APP, "cbr", 1, 3, 0, 512),
        (0.5, EV_SENT, "none", LAYER_MAC, "routing-control", 2, None, 4, 48),
        (0.5, EV_DROPPED, "fading", LAYER_MAC, "pbc", 7, None, 6, 300),
        (0.6, EV_DROPPED, "ttl", LAYER_ROUTING, "cbr", 1, 3, 2, 512),
        (0.25, EV_SENT, "none", LAYER_APP, "cbr", 5, None, 1, 256),
        (1.0 / 3.0, EV_RECEIVED, "none", LAYER_APP, "cbr", 5, None, 3, 256),
        (0.7, EV_SENT, "none", LAYER_MAC, "ack", 8, None, 3, 14),
    ]
    path = tmp_path / "trace.txt"
    live = TraceAggregator()
    write_trace(path, records, live)
    got = read_trace(path)
    assert list(got.counts.items()) == list(live.counts.items())
    assert got.recv_events == live.recv_events == [(1.0 / 3.0, 5, None)]
    assert got.sent_meta == live.sent_meta == {1: (0.1 + 0.2, 3, 0, 512),
                                               5: (0.25, None, 1, 256)}
    assert got.terminal == live.terminal == {1, 5}
    assert ((got.control_tx, got.control_tx_bytes, got.cbr_sent_bytes, got.cbr_recv_bytes)
            == (live.control_tx, live.control_tx_bytes, live.cbr_sent_bytes,
                live.cbr_recv_bytes) == (1, 48, 768, 256))


def test_report_from_a_trace_file_equals_the_live_report(tmp_path):
    path = tmp_path / "trace.txt"
    live = TraceAggregator()
    with open(path, "w", encoding="utf-8") as fh:
        trace = Trace()
        trace.attach(live)
        trace.attach(TraceFileWriter(fh))
        for t, event, reason, layer, kind, pid, flow, node, size in (
                (1.0, EV_SENT, "none", LAYER_APP, "cbr", 1, 1, 0, 100),
                (1.0, EV_SENT, "none", LAYER_MAC, "routing-control", 2, None, 0, 40),
                (1.25, EV_RECEIVED, "none", LAYER_APP, "cbr", 1, 1, 3, 100),
                (2.0, EV_SENT, "none", LAYER_APP, "cbr", 3, 1, 0, 100),
                (2.5, EV_DROPPED, "ifq", LAYER_MAC, "cbr", 3, 1, 0, 100)):
            trace.add(t, event, reason, layer, kind, pid, flow, node, size)
    replayed = read_trace(path)
    assert build_report(replayed, duration=3.0) == build_report(live, duration=3.0)
    assert delay_series(replayed) == delay_series(live) == [(1.25, 0.25)]


# a cbr packet sent and received, then a beacon drop, as trace lines
GOOD_LINES = ["1.0 sent none app cbr 1 0 0 100\n",
              "1.25 received none app cbr 1 0 3 100\n",
              "1.5 dropped fading mac pbc 2 - 4 300\n"]


@pytest.mark.parametrize("bad, message", [
    ("1.75 dropped fading mac pb", "line 6: 5 columns, not 9"),   # a killed run's end
    ("1.75 sent none app cbr 2 0 0 100 7", "line 6: 10 columns, not 9"),
    ("1.75 sent none app cbr x 0 0 100", "line 6: invalid literal"),
    ("1.75 sent none mac routing-control 2 - 0 4O", "line 6: invalid literal"),
    ("1.75 sent none app cbr 1 0 0 100", "line 6: duplicate sent for packet 1"),
    ("1.75 received none app cbr 9 0 3 100", "line 6: receive without matching send"),
])
def test_a_bad_line_is_corruption_naming_the_file_and_line(tmp_path, bad, message):
    path = tmp_path / "trace.txt"
    path.write_text(TRACE_HEADER + "".join(GOOD_LINES) + bad + "\n", encoding="utf-8")
    with pytest.raises(TraceCorruptionError, match=f"trace.txt, {message}"):
        read_trace(path)


def test_a_blank_line_is_skipped_and_a_missing_header_is_corruption(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(TRACE_HEADER + "\n".join(GOOD_LINES), encoding="utf-8")
    agg = read_trace(path)
    assert (agg.sent(), agg.received(), agg.count(kind="pbc")) == (1, 1, 1)
    path.write_text("".join(GOOD_LINES), encoding="utf-8")
    with pytest.raises(TraceCorruptionError, match="no vanetbench-trace v1 header"):
        read_trace(path)


# -- beacon outcome blocks ---------------------------------------------------------

# (time, packet id, size, [(node, outcome)]) of one beacon broadcast, an
# outcome for every hearer; "all in turn" runs them in this order, so the
# fading count exists before the first reception and collision are counted
PBC_BLOCKS = {
    "fading only": (1.0, 39, 300, [(2, "fading"), (5, "fading")]),
    "receptions": (1.5, 40, 300, [(1, "received"), (4, "received")]),
    "drops": (2.0, 41, 300, [(2, "fading"), (3, "collision"), (6, "fading")]),
    "mixed": (2.5, 42, 200, [(0, "collision"), (2, "received"), (5, "fading"),
                             (7, "received"), (9, "collision")]),
    "empty": (3.0, 43, 300, []),
    "17-digit time": (0.1 + 0.2, 44, 300, [(3, "fading"), (8, "received")]),
    # after the blocks above, whose ids are one digit: the file writer's cached
    # node tails run out mid-trace
    "3-digit ids": (3.5, 45, 300, [(9, "fading"), (100, "received"), (101, "fading"),
                                   (250, "collision"), (999, "received")]),
}


def pbc_block_records(time, pid, size, outcomes):
    """One block as single records: an app-layer reception, or a MAC drop
    whose reason is the outcome."""
    return [TraceRecord(time, EV_RECEIVED, "none", LAYER_APP, "pbc", pid, None, node, size)
            if outcome == "received" else
            TraceRecord(time, EV_DROPPED, outcome, LAYER_MAC, "pbc", pid, None, node, size)
            for node, outcome in outcomes]


def as_block(time, pid, size, outcomes):
    """The block form of one broadcast: its hearers, and the outcomes that
    are not fading, the default."""
    return (time, pid, size, [node for node, _ in outcomes],
            [(node, outcome) for node, outcome in outcomes if outcome != "fading"])


def traced_blocks(blocks, as_blocks):
    """Each sink's view of the blocks, fed as blocks or one record at a time:
    the file text, the counts in iteration order and the kept records."""
    fh = io.StringIO()
    trace = recording_trace()
    agg = trace.attach(TraceAggregator())
    trace.attach(TraceFileWriter(fh))
    trace.add(1.0, EV_SENT, "none", LAYER_MAC, "pbc", 40, None, 7, 300)
    for block in blocks:
        if as_blocks:
            trace.add_pbc_block(*as_block(*block))
        else:
            for r in pbc_block_records(*block):
                trace.add(r.time, r.event, r.reason, r.layer, r.kind, r.packet_id,
                          r.flow_id, r.node, r.size)
    return fh.getvalue(), list(agg.counts.items()), trace.records


@pytest.mark.parametrize("name", [*PBC_BLOCKS, "all in turn"])
def test_a_pbc_block_equals_its_records_in_every_sink(name):
    blocks = list(PBC_BLOCKS.values()) if name == "all in turn" else [PBC_BLOCKS[name]]
    text, counts, records = traced_blocks(blocks, as_blocks=True)
    assert (text, counts, records) == traced_blocks(blocks, as_blocks=False)
    assert records[1:] == [r for b in blocks for r in pbc_block_records(*b)]
    assert len(text.splitlines()) == 2 + len(records)       # header lines + records


def test_a_pbc_block_writes_the_full_repr_of_its_time():
    text, _, _ = traced_blocks([PBC_BLOCKS["17-digit time"]], as_blocks=True)
    assert text.splitlines()[-2:] == [
        "0.30000000000000004 dropped fading mac pbc 44 - 3 300",
        "0.30000000000000004 received none app pbc 44 - 8 300"]
