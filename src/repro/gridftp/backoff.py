"""Retry backoff schedules for reliable transfers.

Fixed retry delays resonate badly with correlated failures: every
client that faulted on the same link outage retries in lockstep and
faults again.  The standard cure — exponential backoff capped at a
ceiling, with multiplicative jitter to de-synchronise retriers — is
modelled here as a small value object so schedules can be tested as
data (monotone, capped, jitter within bounds) independently of the
transfer machinery that consumes them.

Jitter draws come from a caller-supplied named
:class:`~repro.sim.random_streams.RandomStream`, keeping retry timing
inside the seeded determinism envelope.
"""

__all__ = ["BackoffPolicy"]


class BackoffPolicy:
    """Exponential backoff: ``base * multiplier**(attempt-1)``, capped.

    Parameters
    ----------
    base:
        Delay before the first retry, seconds.
    multiplier:
        Growth factor per failed attempt (``1.0`` = constant backoff,
        the pre-chaos behaviour).
    cap:
        Ceiling on the un-jittered delay, seconds.
    jitter:
        Multiplicative jitter fraction: the delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]``.  Zero
        disables jitter (and the stream is never consulted).
    max_attempts:
        Retry *budget*: how many retries the policy will fund in one
        operation (``None`` = unlimited; the consumer may still impose
        its own attempt cap).
    max_total_wait:
        Budget on *cumulative* backoff sleep, seconds (``None`` =
        unlimited).  A retry whose delay would push the total past this
        is refused — an operation cannot spend unbounded wall time
        asleep between attempts no matter how many attempts remain.

    Consumers enforce the budget by calling :meth:`exhaustion` before
    each sleep and raising a typed error (see
    :class:`~repro.gridftp.reliable.RetryBudgetExhaustedError`) when it
    returns a reason.
    """

    def __init__(self, base=1.0, multiplier=2.0, cap=60.0, jitter=0.25,
                 max_attempts=None, max_total_wait=None):
        if base < 0:
            raise ValueError("base must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (delays never shrink)")
        if cap < base:
            raise ValueError("cap must be >= base")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        if max_total_wait is not None and max_total_wait <= 0:
            raise ValueError("max_total_wait must be positive (or None)")
        self.base = float(base)
        self.multiplier = float(multiplier)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self.max_attempts = (
            None if max_attempts is None else int(max_attempts)
        )
        self.max_total_wait = (
            None if max_total_wait is None else float(max_total_wait)
        )

    def __repr__(self):
        budget = ""
        if self.max_attempts is not None:
            budget += f" max_attempts={self.max_attempts}"
        if self.max_total_wait is not None:
            budget += f" max_total_wait={self.max_total_wait:g}s"
        return (
            f"<BackoffPolicy base={self.base:g}s x{self.multiplier:g} "
            f"cap={self.cap:g}s jitter={self.jitter:g}{budget}>"
        )

    @classmethod
    def constant(cls, delay):
        """A fixed, jitter-free ``delay`` before every retry."""
        return cls(base=delay, multiplier=1.0, cap=max(delay, 0.0),
                   jitter=0.0)

    def raw_delay(self, attempt):
        """Un-jittered delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        return min(self.cap, self.base * self.multiplier ** (attempt - 1))

    def delay(self, attempt, stream=None):
        """Jittered delay before retry number ``attempt`` (1-based).

        ``stream`` is required when the policy has jitter; the draw
        count per call is constant (one draw, or none when jitter is
        off), so consumers stay aligned across runs.
        """
        raw = self.raw_delay(attempt)
        if self.jitter == 0.0:
            return raw
        if stream is None:
            raise ValueError("a RandomStream is required for jitter")
        factor = stream.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return raw * factor

    def schedule(self, attempts):
        """The first ``attempts`` un-jittered delays, in order."""
        return [self.raw_delay(n) for n in range(1, attempts + 1)]

    def exhaustion(self, attempt, total_wait):
        """Whether funding retry number ``attempt`` busts the budget.

        ``total_wait`` is the cumulative sleep *including* the delay
        about to be taken.  Returns ``None`` (within budget),
        ``"max-attempts"`` or ``"max-total-wait"``.
        """
        if self.max_attempts is not None and attempt > self.max_attempts:
            return "max-attempts"
        if self.max_total_wait is not None \
                and total_wait > self.max_total_wait:
            return "max-total-wait"
        return None
