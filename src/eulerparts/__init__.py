"""Partitions under multiplicity caps.

Enumeration of multiplicity-bounded partitions, the weight-preserving
bijections that exchange the alternating sum with the odd-part count, and
truncated generating-function identities for both, with exhaustive
finite-range verification.
"""

from .bijections import (BijectionTrace, DomainError, binary_contract,
                         binary_expand, binary_inverse, binary_map,
                         merge_distinct_even, merge_pairs, pairing_inverse,
                         pairing_map, split_distinct_even, split_pairs,
                         sylvester_distinct_to_odd, sylvester_odd_to_distinct)
from .enumeration import (UNBOUNDED, BoundSequence, CongruenceFilter,
                          bounded_partitions, count_by_statistic, count_total,
                          parse_bounds, parse_filter, parse_phi)
from .partition import Partition, alt_sum, odd_count
from .series import (ALT_BY_WEIGHT, FOUR_PARAM, HALF_CELLS, ROW_TOTALS,
                     Series, binary_gf, boulet_product,
                     enumerated_series, half_cells_product, pairing_gf,
                     partition_gf, product_series, restricted_boulet_product,
                     row_totals_product, series_equal)
from .verify import REGISTRY, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "ALT_BY_WEIGHT", "BijectionTrace", "BoundSequence", "CongruenceFilter",
    "DomainError", "FOUR_PARAM", "HALF_CELLS", "Partition", "REGISTRY",
    "ROW_TOTALS", "Series", "UNBOUNDED", "VerificationReport", "alt_sum",
    "binary_contract", "binary_expand", "binary_gf", "binary_inverse",
    "binary_map", "boulet_product", "bounded_partitions",
    "count_by_statistic", "count_total", "enumerated_series",
    "half_cells_product", "merge_distinct_even", "merge_pairs", "odd_count",
    "pairing_gf", "pairing_inverse", "pairing_map", "parse_bounds",
    "parse_filter", "parse_phi", "partition_gf", "product_series",
    "restricted_boulet_product", "row_totals_product", "series_equal",
    "split_distinct_even", "split_pairs",
    "sylvester_distinct_to_odd", "sylvester_odd_to_distinct",
]
