"""Stateful property test: one worker under any mix of calls conserves.

Hypothesis drives a single ``GatewayWorker`` with a ``SpanTracker``
attached through arbitrary sequences of single packets, poll batches,
batch boundaries and mode switches, over a small population of TCP,
UDP and caravan flows.  After every step the worker's conservation
identities must hold against what its engines still buffer, the span
balance must hold, and the span FIFOs must agree with the engines.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import Bound, GatewayConfig, GatewayWorker, WorkerMode
from repro.core.caravan import encode_caravan
from repro.obs import SpanTracker
from repro.packet import TCPFlags, build_tcp, build_udp

FLOWS = 3

#: Packet kinds per direction.  Inbound TCP/UDP feed the merge engines;
#: outbound jumbo TCP is split and outbound caravans are opened.
INBOUND_KINDS = ("tcp", "tcp", "udp", "syn")
OUTBOUND_KINDS = ("tcp", "udp", "caravan", "damaged-caravan", "syn")


def _specs(kinds):
    return st.tuples(
        st.sampled_from(kinds),
        st.integers(min_value=0, max_value=FLOWS - 1),
        st.integers(min_value=1, max_value=8948),
        st.booleans(),
    )


class WorkerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.worker = GatewayWorker(
            GatewayConfig(elephant_threshold_packets=3), index=0
        )
        self.spans = self.worker.spans = SpanTracker()
        self.now = 0.0
        self.seqs = {}

    def _build(self, bound, spec):
        kind, flow, size, gap = spec
        inbound = bound == Bound.INBOUND
        outside, inside = f"198.51.100.{flow + 1}", f"10.1.0.{flow + 1}"
        src, dst = (outside, inside) if inbound else (inside, outside)
        if kind == "syn":
            return build_tcp(src, dst, 40000 + flow, 443, flags=TCPFlags.SYN, mss=1460)
        if kind == "tcp":
            size = min(size, 1448) if inbound else size
            key = (bound, flow)
            # A gap leaves a hole in the sequence space, so the merge
            # engine has to flush instead of splicing.
            seq = self.seqs.get(key, 0) + (1000 if gap else 0)
            self.seqs[key] = seq + size
            return build_tcp(src, dst, 50000 + flow, 5201, payload=bytes(size),
                             seq=seq, flags=TCPFlags.ACK)
        datagram = min(size, 1200) if inbound else min(size, 1000)
        if kind == "udp":
            return build_udp(src, dst, 6000 + flow, 4433, payload=bytes(datagram))
        caravan = encode_caravan([
            build_udp(src, dst, 6000 + flow, 4433, payload=bytes(datagram))
            for _ in range(3)
        ])
        if kind == "damaged-caravan":
            caravan.payload = caravan.payload[:-(datagram // 2 + 1)]
            caravan.udp.length = 8 + len(caravan.payload)
            caravan.ip.total_length = caravan.ip.header_len + caravan.udp.length
        return caravan

    @rule(spec=_specs(INBOUND_KINDS))
    def process_inbound(self, spec):
        self.worker.process(self._build(Bound.INBOUND, spec), Bound.INBOUND, self.now)

    @rule(spec=_specs(OUTBOUND_KINDS))
    def process_outbound(self, spec):
        self.worker.process(self._build(Bound.OUTBOUND, spec), Bound.OUTBOUND, self.now)

    @rule(specs=st.lists(_specs(INBOUND_KINDS), min_size=1, max_size=16))
    def process_batch_inbound(self, specs):
        packets = [self._build(Bound.INBOUND, spec) for spec in specs]
        self.worker.process_batch(packets, Bound.INBOUND, self.now)

    @rule(specs=st.lists(_specs(OUTBOUND_KINDS), min_size=1, max_size=8))
    def process_batch_outbound(self, specs):
        packets = [self._build(Bound.OUTBOUND, spec) for spec in specs]
        self.worker.process_batch(packets, Bound.OUTBOUND, self.now)

    @rule(advance=st.sampled_from((1.5e-6, 100e-6, 600e-6)))
    def end_batch(self, advance):
        self.now += advance
        self.worker.end_batch(self.now)

    @rule(mode=st.sampled_from(WorkerMode.ALL))
    def set_mode(self, mode):
        self.worker.set_mode(mode, self.now)

    @invariant()
    def conserves(self):
        worker = self.worker
        pending_tcp = worker.merge.pending_bytes()
        pending_datagrams = worker.caravan_merge.pending_packets()
        assert worker.stats.conservation_errors(
            pending_tcp_bytes=pending_tcp, pending_datagrams=pending_datagrams,
        ) == {}
        assert self.spans.balanced
        assert self.spans.anomalies == 0
        assert self.spans.pending_merge_bytes() == pending_tcp
        assert self.spans.pending_caravan_datagrams() == pending_datagrams


WorkerMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
TestWorkerMachine = WorkerMachine.TestCase
