"""Embedded reference sequence prefixes (hermetic; no network access).

* A002212: counts of skew Dyck paths by semilength — the even part of the
  primal axis series.
* A033321: the sequence matched by the axis closed-form expansion of the
  negative-territory variant (see :func:`genfunc.negative_axis_series`).
"""

A002212 = (
    1,
    1,
    3,
    10,
    36,
    137,
    543,
    2219,
    9285,
    39587,
    171369,
    751236,
    3328218,
    14878455,
)

A033321_PREFIX = (1, 2, 6, 21, 79, 311, 1265, 5275)

SEQUENCES = {
    "A002212": A002212,
    "A033321": A033321_PREFIX,
}


def get_sequence(seq_id):
    try:
        return SEQUENCES[seq_id]
    except KeyError:
        raise ValueError(f"unknown sequence id {seq_id!r}; known: {sorted(SEQUENCES)}")
