"""Frozen expected values for the built-in regression tables.

These are the published reference results the `tables` command and the
acceptance suite diff against; recomputing them is the whole point of the
checks, so they are data here, never derived.
"""

# closed form for unstopped runs: value 0 exactly at these lengths mod 10
PLAIN_ZERO_RESIDUES = frozenset({0, 2, 3, 6, 9})

# least component length attaining each value (k = 13..16 need the opt-in
# long scan; the default suite stops at 12)
FIRST_OCCURRENCE_LENGTHS = {
    1: 1, 2: 4, 3: 6, 4: 9, 5: 11, 6: 14, 7: 16, 8: 20,
    9: 22, 10: 25, 11: 27, 12: 30, 13: 32, 14: 37, 15: 39, 16: 43,
}
FIRST_OCCURRENCE_DEFAULT_MAX = 12

# percentage of length-m words per value 0..9, two significant figures
DISTRIBUTION_PERCENT_2SF = {
    35: [24, 26, 19, 15, 5.4, 5.7, 2.7, 2.5, 0.51, 0.25],
    36: [22, 27, 18, 15, 5.5, 5.7, 2.6, 2.8, 0.54, 0.27],
    37: [26, 22, 14, 19, 5.8, 5.5, 2.8, 2.8, 0.55, 0.31],
    38: [25, 23, 16, 17, 5.7, 5.7, 3.1, 2.7, 0.56, 0.35],
    39: [22, 26, 19, 14, 5.6, 5.9, 3.0, 3.0, 0.59, 0.37],
    40: [24, 24, 16, 18, 5.9, 5.7, 3.0, 3.2, 0.61, 0.40],
    41: [26, 22, 15, 19, 5.9, 5.8, 3.3, 3.1, 0.61, 0.44],
    42: [22, 24, 18, 15, 5.8, 6.0, 3.3, 3.2, 0.63, 0.47],
}

# every sixth file stopped (residue 4 mod 6): least length of value 2**alpha
P6_MILESTONES = {
    3: 51, 4: 111, 5: 202, 6: 497, 7: 1414, 8: 3545,
    9: 8255, 10: 21208, 11: 61985, 12: 187193,
}
P6_DEFAULT_MAX_ALPHA = 8     # through length 3545 in the default suite
P6_SLOW_MAX_ALPHA = 11       # 8255, 21208 and 61985 in the slow suite

# files 0 and 5 mod 14 stopped: the family of start phases repeats with
# this period (single phase rows settle into divisors of it)
P14_PERIOD = 504
