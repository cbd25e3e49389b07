"""Deterministic verification, correction, and output-sensitive
multiplication of integer matrix products, via polynomial fingerprints
over small prime fields, plus reduction gadgets to 3SUM and univariate
polynomial identity testing."""

from .errors import (
    InternalCheckError,
    MatrixParseError,
    PromiseViolationError,
    ResourceLimitError,
    UsageError,
)
from .field import (
    CrtBasis,
    FieldCtx,
    build_crt_basis,
    find_generator,
    multiplicative_order,
    power_sequence,
    sieve_primes_in_range,
)
from .poly import (
    Poly,
    horner_eval,
    multipoint_eval,
    poly_mul,
)
from .matrix import (
    AugmentedPair,
    IntMatrix,
    SubmatrixId,
    as_matrix,
    augment,
    naive_multiply,
    pad_to_pow2,
    read_matrix,
    write_matrix,
)
from .verify import (
    FingerprintRep,
    ZeroVerdict,
    all_zeroes_test,
    eval_fingerprint,
    eval_fingerprint_progression,
    fingerprint_rep,
    flawed_bilinear_test,
    freivalds_verify,
    sampling_verify,
    seeded_rng,
    verify_product,
)
from .correct import (
    CorrectionResult,
    correct_product,
    multiply_output_sensitive,
)
from .reductions import (
    Circuit,
    Gate,
    OnesCertificate,
    ThreeSumInstance,
    bmm_ones_certificate,
    bmm_zeroes_to_3sum,
    emit_upit_circuit,
    eval_circuit,
    serialize_circuit,
    serialize_three_sum,
    three_sum_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedPair",
    "Circuit",
    "CorrectionResult",
    "CrtBasis",
    "FieldCtx",
    "FingerprintRep",
    "Gate",
    "IntMatrix",
    "InternalCheckError",
    "MatrixParseError",
    "OnesCertificate",
    "Poly",
    "PromiseViolationError",
    "ResourceLimitError",
    "SubmatrixId",
    "ThreeSumInstance",
    "UsageError",
    "ZeroVerdict",
    "all_zeroes_test",
    "as_matrix",
    "augment",
    "bmm_ones_certificate",
    "bmm_zeroes_to_3sum",
    "build_crt_basis",
    "correct_product",
    "emit_upit_circuit",
    "eval_circuit",
    "eval_fingerprint",
    "eval_fingerprint_progression",
    "find_generator",
    "fingerprint_rep",
    "flawed_bilinear_test",
    "freivalds_verify",
    "horner_eval",
    "multipoint_eval",
    "multiplicative_order",
    "multiply_output_sensitive",
    "naive_multiply",
    "pad_to_pow2",
    "poly_mul",
    "power_sequence",
    "read_matrix",
    "sampling_verify",
    "seeded_rng",
    "serialize_circuit",
    "serialize_three_sum",
    "sieve_primes_in_range",
    "three_sum_bruteforce",
    "verify_product",
    "write_matrix",
]
