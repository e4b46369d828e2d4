"""QoS arbitration: token-bucket rate limiting + a latency circuit breaker.

Foreground I/O competes with conversion/rebuild bandwidth inside each
volume's tick-domain schedule.  Two mechanisms arbitrate:

* :class:`TokenBucket` — background work (conversion runs, rebuild
  sweeps) spends tokens; tokens refill at ``rate`` per tick up to
  ``burst``.  An empty bucket stalls the *background* thread only — the
  foreground path is never throttled.
* :class:`CircuitBreaker` — a sliding window over foreground latencies
  (stall + service, the number :func:`repro.obs.record.
  record_online_report` histograms).  When a windowed quantile that
  the tenant's :class:`QosTarget` constrains (p50, p95 or p99; only the
  constrained ones are computed) breaches its limit the breaker trips:
  conversion pauses, backing off on the shared
  :class:`repro.util.retry.Backoff` curve (bounded exponential), and
  resumes from the journal watermark.
  Consecutive breaches escalate the backoff; a clean re-probe resets it.

Both are pure tick-domain objects — deterministic, clockless, owned by
one volume's cooperative schedule (no cross-thread state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.retry import Backoff, BackoffPolicy

__all__ = ["QosTarget", "TokenBucket", "CircuitBreaker", "DEFAULT_BREAKER_POLICY"]


#: breaker pause curve: 32..256-tick pauses, at most ~1.5k ticks of
#: cumulative pause per incident before the breaker just stays open
#: until the foreground pressure passes
DEFAULT_BREAKER_POLICY = BackoffPolicy(
    base_ticks=32.0, multiplier=2.0, max_attempts=6, cap_ticks=256.0
)


@dataclass(frozen=True)
class QosTarget:
    """Per-tenant foreground-latency ceilings, in Te ticks.

    A ``None`` quantile is unconstrained.  Defaults are generous for the
    healthy p=5 geometry (worst healthy foreground latency is around 10
    ticks: a bounded sub-parity stall plus a 6-tick RMW); degraded-mode
    service inflates toward ``3x`` — tighter targets make the breaker
    trip under degradation, which is exactly the intended behaviour.
    """

    p50_ticks: float | None = None
    p95_ticks: float | None = None
    p99_ticks: float | None = 60.0

    def breached_by(self, latencies) -> str | None:
        """Name of the first quantile of ``latencies`` (p50, p95, p99
        order) over its limit, or None.  Only constrained quantiles are
        computed, in one ``np.percentile`` call, and none when no sample
        exceeds the tightest limit: an interpolated quantile never
        exceeds the largest sample."""
        limits = [
            (name, q, limit)
            for name, q, limit in (
                ("p50", 50.0, self.p50_ticks),
                ("p95", 95.0, self.p95_ticks),
                ("p99", 99.0, self.p99_ticks),
            )
            if limit is not None
        ]
        if not limits or not len(latencies):
            return None
        if max(latencies) <= min(limit for _n, _q, limit in limits):
            return None
        values = np.percentile(np.asarray(latencies), [q for _n, q, _l in limits])
        for (name, _q, limit), value in zip(limits, values):
            if value > limit:
                return name
        return None


class TokenBucket:
    """Deterministic tick-domain token bucket for background bandwidth.

    ``rate`` tokens accrue per tick (fractional rates are exact — the
    bucket integrates ``rate * dt`` in floats), capped at ``burst``.
    Background work calls :meth:`delay_until` to learn when it may spend
    ``cost`` tokens, advances its clock there, then :meth:`spend`\\ s.
    """

    __slots__ = ("rate", "burst", "_tokens", "_tick")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._tick = 0.0

    def _advance(self, tick: float) -> None:
        if tick > self._tick:
            self._tokens = min(self.burst, self._tokens + (tick - self._tick) * self.rate)
            self._tick = tick

    def available(self, tick: float) -> float:
        self._advance(tick)
        return self._tokens

    def delay_until(self, cost: float, tick: float) -> float:
        """Ticks to wait (possibly 0) before ``cost`` tokens are available.

        A cost above ``burst`` is granted at the burst waterline — one
        oversized rebuild sweep must not deadlock the bucket.
        """
        self._advance(tick)
        need = min(float(cost), self.burst)
        if self._tokens >= need:
            return 0.0
        return (need - self._tokens) / self.rate

    def spend(self, cost: float, tick: float) -> None:
        self._advance(tick)
        self._tokens = max(0.0, self._tokens - float(cost))


class CircuitBreaker:
    """Latency circuit breaker over one tenant's foreground stream.

    States: **closed** (conversion admitted) → **open** (paused until
    ``resume_tick``) → half-open probe (first window after resume); a
    breach while half-open escalates the backoff, a clean window closes
    it fully and resets the curve.
    """

    __slots__ = (
        "target", "window", "min_samples", "_backoff", "_lat",
        "_open_until", "trips", "open_ticks", "closed_latencies",
        "open_latencies", "breaches",
    )

    def __init__(
        self,
        target: QosTarget,
        policy: BackoffPolicy = DEFAULT_BREAKER_POLICY,
        window: int = 32,
        min_samples: int = 8,
    ):
        self.target = target
        self.window = int(window)
        self.min_samples = int(min_samples)
        self._backoff = Backoff(policy)
        self._lat: list[float] = []
        self._open_until: float | None = None
        self.trips = 0
        self.open_ticks = 0.0
        self.breaches: list[str] = []
        #: foreground latencies split by breaker state at observation
        #: time — the acceptance gate reads the closed-state percentiles
        self.closed_latencies: list[float] = []
        self.open_latencies: list[float] = []

    # ------------------------------------------------------------- queries
    def is_open(self, tick: float) -> bool:
        return self._open_until is not None and tick < self._open_until

    @property
    def resume_tick(self) -> float | None:
        """When the current pause ends (None while closed)."""
        return self._open_until

    # ------------------------------------------------------------- updates
    def observe(self, latency: float, tick: float) -> bool:
        """Record one foreground latency; returns True when this trips.

        The sample is attributed to the breaker state *at observation*:
        a sample that trips the breaker was necessarily observed while
        closed (that is the window the QoS gate scores).
        """
        if self.is_open(tick):
            self.open_latencies.append(float(latency))
            return False
        self.closed_latencies.append(float(latency))
        self._lat.append(float(latency))
        if len(self._lat) > self.window:
            del self._lat[: len(self._lat) - self.window]
        if len(self._lat) < self.min_samples:
            return False
        breach = self.target.breached_by(self._lat)
        if breach is None:
            if self._open_until is not None and tick >= self._open_until:
                # clean sample after the pause: close fully, reset curve
                self._open_until = None
                self._backoff.reset()
            return False
        return self._trip(breach, tick)

    def _trip(self, breach: str, tick: float) -> bool:
        delay = self._backoff.next_delay()
        if delay is None:
            # curve exhausted: stay open for the cap's worth again —
            # bounded per incident, but never a tight trip/re-trip loop
            delay = self._backoff.policy.delay(self._backoff.policy.max_attempts - 1)
        self.trips += 1
        self.breaches.append(breach)
        self.open_ticks += delay
        self._open_until = tick + delay
        self._lat.clear()  # the paused window must re-prove itself
        return True

    # ------------------------------------------------------------ reporting
    def snapshot(self) -> dict:
        closed = np.asarray(self.closed_latencies) if self.closed_latencies else None
        return {
            "trips": self.trips,
            "open_ticks": self.open_ticks,
            "breaches": list(self.breaches),
            "closed_samples": len(self.closed_latencies),
            "open_samples": len(self.open_latencies),
            "closed_p50": float(np.percentile(closed, 50)) if closed is not None else 0.0,
            "closed_p95": float(np.percentile(closed, 95)) if closed is not None else 0.0,
            "closed_p99": float(np.percentile(closed, 99)) if closed is not None else 0.0,
        }
