"""b-symbol weights/distances and repeated-root cyclic code distances.

The package pairs every closed-form result with an independent brute-force
oracle; the `verify` module sweeps the two against each other.
"""

from .bsymbol import (
    CircularInterval,
    RunPartition,
    check_bounds,
    dist_b_formula,
    dist_b_oracle,
    pi_b,
    run_partition,
    weight_b_formula,
    weight_b_oracle,
)
from .codes import (
    CyclicCodeSpec,
    DistanceRecord,
    ClosedFormResult,
    build_record,
    closed_form_db,
    enumerate_codewords,
    hamming_distance_formula,
    lemma10_weight,
    min_b_weight_bruteforce,
)
from .gf import FieldParams, make_field
from .polyring import poly, poly_mul, to_word, xminus1_pow

__version__ = "0.1.0"
