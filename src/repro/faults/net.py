"""Message-level control-plane fault injection (``repro.faults.net``).

The paper's master pushes subjobs to nodes over a LAN and silently
assumes every control message arrives, in order, exactly once.  This
module drops that assumption: a :class:`ControlChannel` sits between the
schedulers and the cluster and subjects every control message — central
dispatches and completion reports, decentral grants and standing-bid
posts — to seeded per-message loss, duplication, reordering and delay
drawn from the dedicated ``faults.net.*`` RNG streams.

The reliability protocol layered on top is a classic ack+retransmit
state machine:

* every reliable message is (re)transmitted until the receiver's ack
  survives the reverse path, with exponential backoff between attempts
  (``ack_timeout * ack_backoff_factor**(attempt-1)``, capped);
* the receiver deduplicates: only the *first* copy of a message invokes
  its ``deliver`` callback, later copies are counted and re-acked;
* after ``retransmit_budget`` retransmits without an ack the message is
  **dead-lettered**: if it was genuinely never delivered its
  ``on_dead_letter`` callback runs (dispatches re-pend their subjob, so
  lost work is re-queued rather than stranded); if it *was* delivered
  and only the acks were lost, it is silently retired — running the
  dead-letter path would double-book the work;
* completion reports are sent ``unlimited`` — ground truth must
  eventually reach the master, so they retransmit without a budget.

Determinism: all randomness comes from the channel's four private
streams, so a run depends only on ``(seed, NetFaultConfig)`` and is
bit-identical across ``--jobs``, ``--resume`` and the sanitizer.  With
the channel disabled (``config is None`` or all probabilities zero)
``send_reliable`` degenerates to a synchronous call — no draws, no
calendar events — so disabled runs are bit-identical to a channel-less
build.

Accounting invariant (asserted by tests): for reliable messages,
``sent == delivered + dead_letters + in_flight`` at every instant — no
message is ever silently stranded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from ..core.engine import Engine, Timer
from ..core.events import EventPriority, ScheduledEvent
from ..core.rng import RandomStreams
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..sim.config import NetFaultConfig
from ..workload.jobs import Subjob, SubjobState
from .recovery import exponential_backoff

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from ..sched.base import SchedulerPolicy


@dataclass
class ChannelStats:
    """Lifetime counters of one :class:`ControlChannel`."""

    #: Reliable messages admitted via :meth:`ControlChannel.send_reliable`.
    sent: int = 0
    #: Reliable messages whose first copy reached the receiver.
    delivered: int = 0
    #: Reliable messages that exhausted their retransmit budget undelivered.
    dead_letters: int = 0
    #: Individual transmissions (requests, acks, one-way posts) lost in transit.
    copies_lost: int = 0
    #: Spontaneous duplicate copies injected by the channel.
    duplicates: int = 0
    #: Redundant copies discarded by receiver-side deduplication.
    duplicates_dropped: int = 0
    #: Copies held back past later traffic (reordering events).
    reordered: int = 0
    #: Retransmissions performed by the ack state machine.
    retransmits: int = 0
    #: Ack timers that fired.
    timeouts: int = 0
    #: Arbiter failover re-elections (incremented by the decentral policy).
    failovers: int = 0
    #: Subjobs re-pended after a dispatch dead-letter or bounce.
    dispatch_repends: int = 0
    #: One-way (fire-and-forget) posts attempted.
    oneway_sent: int = 0
    #: One-way posts lost (the sender finds out via its own timeout logic).
    oneway_lost: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dead_letters": self.dead_letters,
            "copies_lost": self.copies_lost,
            "duplicates": self.duplicates,
            "duplicates_dropped": self.duplicates_dropped,
            "reordered": self.reordered,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "failovers": self.failovers,
            "dispatch_repends": self.dispatch_repends,
            "oneway_sent": self.oneway_sent,
            "oneway_lost": self.oneway_lost,
        }


class _Message:
    """Sender-side state of one reliable message."""

    __slots__ = (
        "msg_id",
        "kind",
        "node",
        "deliver",
        "on_dead_letter",
        "unlimited",
        "attempt",
        "delivered",
        "done",
        "retransmit_event",
    )

    def __init__(
        self,
        msg_id: int,
        kind: str,
        node: int,
        deliver: Callable[[], None],
        on_dead_letter: Optional[Callable[[], None]],
        unlimited: bool,
    ) -> None:
        self.msg_id = msg_id
        self.kind = kind
        self.node = node
        self.deliver = deliver
        self.on_dead_letter = on_dead_letter
        self.unlimited = unlimited
        self.attempt = 1
        self.delivered = False
        self.done = False
        self.retransmit_event: Optional[ScheduledEvent] = None


class ControlChannel:
    """The unreliable control LAN between schedulers and nodes.

    When disabled every call is a synchronous pass-through with zero
    random draws and zero calendar events.  When enabled, deliveries are
    dispatched at :attr:`EventPriority.MESSAGE` and the channel owns the
    ``faults.net.loss/dup/delay/reorder`` streams.
    """

    def __init__(
        self,
        engine: Engine,
        config: Optional[NetFaultConfig],
        streams: RandomStreams,
        obs: HookBus = NULL_BUS,
    ) -> None:
        self.engine = engine
        self.config: NetFaultConfig = (
            config if config is not None else NetFaultConfig()
        )
        self.enabled: bool = config is not None and config.enabled
        self.obs = obs
        self.stats = ChannelStats()
        self._seq = 0
        self._messages: Dict[int, _Message] = {}
        # -- central-dispatch coordination -----------------------------------
        self.policy: Optional["SchedulerPolicy"] = None
        self._repend_backlog: List[Subjob] = []
        self._repend_timer: Optional[Timer] = None
        if self.enabled:
            self._loss: np.random.Generator = streams.get("faults.net.loss")
            self._dup: np.random.Generator = streams.get("faults.net.dup")
            self._delay: np.random.Generator = streams.get("faults.net.delay")
            self._reorder: np.random.Generator = streams.get("faults.net.reorder")
            self._repend_timer = engine.timer(
                self._on_repend_timer,
                priority=EventPriority.TIMER,
                label="net.repend",
            )

    # -- queries ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Reliable messages neither delivered+acked nor dead-lettered."""
        return len(self._messages)

    @property
    def repend_backlog(self) -> int:
        """Subjobs waiting for re-dispatch after a dead-letter/bounce."""
        return len(self._repend_backlog)

    # -- one-way posts ----------------------------------------------------------

    def attempt(self, kind: str = "post", node: int = -1) -> bool:
        """One loss draw for a fire-and-forget message (standing bids,
        lease beats).  Returns whether the post survived; the sender owns
        any recovery logic (re-advertisement timers, lease-miss counts).
        Disabled channel: always ``True``, no draw."""
        if not self.enabled:
            return True
        self.stats.oneway_sent += 1
        if float(self._loss.random()) < self.config.loss:
            self.stats.oneway_lost += 1
            self.stats.copies_lost += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now, kinds.NET_DROP, "net", node=node, msg=kind
                )
            return False
        return True

    # -- reliable messaging -------------------------------------------------------

    def send_reliable(
        self,
        deliver: Callable[[], None],
        kind: str,
        node: int = -1,
        on_dead_letter: Optional[Callable[[], None]] = None,
        unlimited: bool = False,
    ) -> None:
        """Send a message that must eventually invoke ``deliver`` exactly
        once, or — after the retransmit budget — ``on_dead_letter``.

        ``unlimited`` removes the budget (completion reports).  Disabled
        channel: ``deliver()`` runs synchronously, nothing is recorded.
        """
        if not self.enabled:
            deliver()
            return
        msg = _Message(self._seq, kind, node, deliver, on_dead_letter, unlimited)
        self._seq += 1
        self._messages[msg.msg_id] = msg
        self.stats.sent += 1
        self._transmit(msg)
        self._arm(msg)

    # -- transmission internals ----------------------------------------------------

    def _transmit(self, msg: _Message) -> None:
        """Put one (possibly duplicated) copy of ``msg`` on the wire."""
        config = self.config
        if float(self._loss.random()) < config.loss:
            self.stats.copies_lost += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.NET_DROP,
                    "net",
                    node=msg.node,
                    msg=msg.kind,
                )
        else:
            self._schedule_copy(msg)
        if config.duplicate > 0 and float(self._dup.random()) < config.duplicate:
            self.stats.duplicates += 1
            self._schedule_copy(msg)

    def _copy_delay(self) -> float:
        config = self.config
        delay = 0.0
        if config.delay_mean > 0:
            delay += float(self._delay.exponential(config.delay_mean))
        if config.reorder > 0 and float(self._reorder.random()) < config.reorder:
            self.stats.reordered += 1
            delay += config.reorder_window * (1.0 + float(self._reorder.random()))
        return delay

    def _schedule_copy(self, msg: _Message) -> None:
        self.engine.call_after(
            self._copy_delay(),
            self._deliver_copy,
            msg,
            priority=EventPriority.MESSAGE,
            label=f"net:{msg.kind}",
        )

    def _deliver_copy(self, msg: _Message) -> None:
        if msg.delivered:
            # Receiver-side dedup: count the redundant copy and re-ack it
            # (the retransmit implies the sender missed the earlier ack).
            self.stats.duplicates_dropped += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.NET_DUP,
                    "net",
                    node=msg.node,
                    msg=msg.kind,
                )
            self._send_ack(msg)
            return
        msg.delivered = True
        self.stats.delivered += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_DELIVER,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        # Draw the ack's fate before running the handler so the channel's
        # stream consumption per delivery is a fixed prefix, independent
        # of whatever scheduling cascade the handler triggers.
        self._send_ack(msg)
        msg.deliver()

    def _send_ack(self, msg: _Message) -> None:
        if msg.done:
            return
        config = self.config
        if float(self._loss.random()) < config.loss:
            self.stats.copies_lost += 1
            return  # lost ack: the sender's timer keeps retransmitting
        delay = 0.0
        if config.delay_mean > 0:
            delay = float(self._delay.exponential(config.delay_mean))
        self.engine.call_after(
            delay,
            self._on_ack,
            msg,
            priority=EventPriority.MESSAGE,
            label=f"net.ack:{msg.kind}",
        )

    def _on_ack(self, msg: _Message) -> None:
        if not msg.done:
            self._retire(msg)

    def _retire(self, msg: _Message) -> None:
        msg.done = True
        if msg.retransmit_event is not None:
            self.engine.cancel(msg.retransmit_event)
            msg.retransmit_event = None
        del self._messages[msg.msg_id]

    # -- retransmit state machine ---------------------------------------------------

    def _arm(self, msg: _Message) -> None:
        config = self.config
        timeout = exponential_backoff(
            msg.attempt,
            config.ack_timeout,
            config.ack_backoff_factor,
            config.ack_timeout_max,
        )
        msg.retransmit_event = self.engine.call_after(
            timeout,
            self._on_timeout,
            msg,
            priority=EventPriority.TIMER,
            label=f"net.rto:{msg.kind}",
        )

    def _on_timeout(self, msg: _Message) -> None:
        if msg.done:
            return
        msg.retransmit_event = None
        self.stats.timeouts += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_TIMEOUT,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        if not msg.unlimited and msg.attempt > self.config.retransmit_budget:
            self._give_up(msg)
            return
        msg.attempt += 1
        self.stats.retransmits += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_RETRANSMIT,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        self._transmit(msg)
        self._arm(msg)

    def _give_up(self, msg: _Message) -> None:
        if msg.delivered:
            # The payload arrived; only the acks were lost.  Retiring
            # without the dead-letter path is what keeps delivery
            # exactly-once — re-pending here would double-book the work.
            self._retire(msg)
            return
        self.stats.dead_letters += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_DEAD_LETTER,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempts=msg.attempt,
            )
        callback = msg.on_dead_letter
        self._retire(msg)
        if callback is not None:
            callback()

    # -- central dispatch coordination ------------------------------------------------

    def attach_policy(self, policy: "SchedulerPolicy") -> None:
        """Install the bound policy used for re-dispatching dead-lettered
        work (called by the simulator after ``policy.bind``)."""
        self.policy = policy

    def dispatch(self, node: "Node", subjob: Subjob) -> None:
        """Reliable central push of ``subjob`` to ``node``.

        The node is *reserved* while the message is in flight so no other
        scheduling decision double-books it; delivery clears the
        reservation and starts the subjob (or bounces it back to the
        re-pend backlog if the node crashed in the meantime), and a
        dead-letter re-pends it.
        """
        node.reserve()
        self.send_reliable(
            lambda: self._deliver_dispatch(node, subjob),
            kind="dispatch",
            node=node.node_id,
            on_dead_letter=lambda: self._dispatch_dead_letter(node, subjob),
        )

    def _deliver_dispatch(self, node: "Node", subjob: Subjob) -> None:
        node.release()
        if (
            subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED)
            or subjob.remaining_events == 0
        ):
            return  # finished or resumed through another path meanwhile
        if node.failed or node.busy:
            self._repend(subjob)
            return
        node.start(subjob)

    def _dispatch_dead_letter(self, node: "Node", subjob: Subjob) -> None:
        node.release()
        if (
            subjob.state in (SubjobState.PENDING, SubjobState.SUSPENDED)
            and subjob.remaining_events > 0
        ):
            self._repend(subjob)

    def _repend(self, subjob: Subjob) -> None:
        self.stats.dispatch_repends += 1
        self._repend_backlog.append(subjob)
        self._arm_repend()

    def drain(self) -> int:
        """Re-dispatch re-pended subjobs onto idle nodes.

        Drain points (caller-driven, mirroring
        :class:`~repro.faults.recovery.RecoveryManager`): every subjob
        completion and the channel's own backstop timer.  Returns the
        number re-dispatched.
        """
        if not self._repend_backlog or self.policy is None:
            return 0
        dispatched = 0
        index = 0
        while index < len(self._repend_backlog):
            subjob = self._repend_backlog[index]
            if (
                subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED)
                or subjob.remaining_events == 0
            ):
                del self._repend_backlog[index]  # resumed/finished elsewhere
                continue
            node = self.policy.pick_retry_node(subjob)
            if node is None:
                index += 1  # no idle node right now
                continue
            del self._repend_backlog[index]
            # Routed back through start_on, i.e. through this channel: the
            # re-dispatch rides the same unreliable LAN as the original.
            self.policy.start_on(node, subjob)
            dispatched += 1
        self._arm_repend()
        return dispatched

    def _on_repend_timer(self) -> None:
        self.drain()

    def _arm_repend(self) -> None:
        if self._repend_timer is None:
            return
        if self._repend_backlog:
            self._repend_timer.schedule_after(self.config.ack_timeout)
        else:
            self._repend_timer.cancel()

    def summary(self) -> Dict[str, Any]:
        """Counters plus live queue depths (debug dumps and tests)."""
        payload: Dict[str, Any] = self.stats.as_dict()
        payload["in_flight"] = self.in_flight
        payload["repend_backlog"] = self.repend_backlog
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlChannel(enabled={self.enabled}, "
            f"in_flight={self.in_flight}, stats={self.stats.as_dict()})"
        )
