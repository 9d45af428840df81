"""Time unit helpers.

All in-memory timestamps and durations are integer milliseconds; file
formats and user-facing APIs use seconds (or hours for rates). Keeping the
clock integral makes event ordering exact across replays.
"""

import math

MS_PER_SECOND = 1_000
MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000


def seconds_to_ms(seconds: float) -> int:
    """Round a duration in seconds to the nearest millisecond tick."""
    return int(round(seconds * MS_PER_SECOND))


def ceil_ms(seconds: float) -> int:
    """Round a duration in seconds up to the next millisecond tick.

    Used for travel durations so an agent's effective speed never exceeds
    its nominal speed (the no-teleportation invariant survives rounding).
    """
    return int(math.ceil(seconds * MS_PER_SECOND - 1e-9))


def hours_to_ms(hours: float) -> int:
    return int(round(hours * MS_PER_HOUR))
