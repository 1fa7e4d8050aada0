"""Time and size units used throughout the simulation.

Virtual time is measured in **seconds** (floats).  These constants make the
intent of durations explicit at call sites, e.g. ``sim.hold(5 * MINUTE)``
or a checkpoint period of ``15 * MINUTE``.

Data sizes are measured in **bytes**; the paper reasons in gigabytes of RAM
per storage element, hence the binary-prefix constants.
"""

# --- time -----------------------------------------------------------------

MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3_600.0
DAY = 24 * HOUR
WEEK = 7 * DAY
YEAR = 365 * DAY

# --- data sizes ------------------------------------------------------------

BYTE = 1
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- convenience -----------------------------------------------------------


def milliseconds(value: float) -> float:
    """Convert a value expressed in milliseconds to simulation seconds."""
    return value * MILLISECOND


def to_milliseconds(seconds: float) -> float:
    """Convert simulation seconds to milliseconds (for reporting)."""
    return seconds / MILLISECOND


def availability_from_downtime(downtime: float, period: float = YEAR) -> float:
    """Return availability as a fraction given total downtime over a period.

    ``availability_from_downtime(5 * MINUTE + 15 * SECOND)`` is roughly
    0.99999, the "five nines" the paper requires of subscriber data.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    downtime = min(max(downtime, 0.0), period)
    return 1.0 - downtime / period


def downtime_budget(availability: float, period: float = YEAR) -> float:
    """Return the downtime budget for an availability target over a period.

    The paper's 99.999% target over one year allows about 315 seconds of
    per-subscriber unavailability.
    """
    if not 0.0 <= availability <= 1.0:
        raise ValueError("availability must be within [0, 1]")
    return (1.0 - availability) * period


FIVE_NINES = 0.99999
"""The paper's resilience requirement: data available 99.999% of the time."""

TEN_MILLISECONDS = 10 * MILLISECOND
"""The paper's target average response time for index-based single queries."""
