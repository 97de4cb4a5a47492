"""Gap-n decompositions, n-bonacci words, and their verification suites.

For each order n >= 2 the package computes the generalized Fibonacci
sequence seeded with n ones (extended to negative indices), the unique
greedy decomposition of any integer into terms with indices at least n
apart, the infinite word obtained by the rewriting B(m) = B(m-1) B(m-n),
closed-form letter counts, and the sets of integers whose decomposition
pins a fixed summand. Every closed form ships with an independent
brute-force or streaming oracle and a check suite comparing the two.
"""

from .decomposition import (brute_force_decompositions, decompose, recompose,
                            validate)
from .errors import (BlockTooLarge, IndexNotFound, InvalidDecomposition,
                     NzeckError, ScanLimitExceeded)
from .fixed_summand import (any_summand_members, any_summand_scan,
                            largest_summand_rows, smallest_summand_members,
                            smallest_summand_scan, smallest_summand_stream,
                            telescoping_identity)
from .harness import (ALL_CHECKS, CheckReport, check_block_counts,
                      check_concat_prefixes, check_decomposition_prefix,
                      check_fixed_summand, check_mutation_sanity,
                      check_unique_decomposition)
from .sequence import (SequenceTable, get_table, largest_index_at_most,
                       perturbed_table, term)
from .words import (CHUNK_LETTERS, DEFAULT_LENGTH_CAP, DEFAULT_SCAN_LIMIT,
                    block, char_at, count_block, count_prefix,
                    count_prefix_scan, format_letters, prefix, stream, stream_chunks)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "BlockTooLarge",
    "CHUNK_LETTERS",
    "CheckReport",
    "DEFAULT_LENGTH_CAP",
    "DEFAULT_SCAN_LIMIT",
    "IndexNotFound",
    "InvalidDecomposition",
    "NzeckError",
    "ScanLimitExceeded",
    "SequenceTable",
    "any_summand_members",
    "any_summand_scan",
    "block",
    "brute_force_decompositions",
    "char_at",
    "check_block_counts",
    "check_concat_prefixes",
    "check_decomposition_prefix",
    "check_fixed_summand",
    "check_mutation_sanity",
    "check_unique_decomposition",
    "count_block",
    "count_prefix",
    "count_prefix_scan",
    "decompose",
    "format_letters",
    "get_table",
    "largest_index_at_most",
    "largest_summand_rows",
    "perturbed_table",
    "prefix",
    "recompose",
    "smallest_summand_members",
    "smallest_summand_scan",
    "smallest_summand_stream",
    "stream",
    "stream_chunks",
    "telescoping_identity",
    "term",
    "validate",
]
