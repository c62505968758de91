"""A diagnostic for the exact tables' one platform dependency: libm's cos and sin.

The exact tables are bit-stable across CPU dispatch, but their last bits rest on
``cmath.exp(1j * x)``, which calls the platform's libm; so does the phase of the
detection model's input state. This test runs every golden of
``test_golden.CASES`` in-process, records each argument ``cmath.exp`` is given
and its result, and compares a hash of their bits with the digest recorded with
glibc 2.36 on x86-64, where the goldens were pinned.

It is a diagnostic, not a gate: on another libm (musl, macOS) the goldens fail
as they would without it, and this test's message says why and which goldens
are affected. A change that adds or alters a case of ``CASES`` records its
digest anew with

    PYTHONPATH=src python tests/test_libm.py
"""

import cmath
import hashlib
import struct
from unittest import mock

from test_golden import CASES, run

# Per golden: the first 16 hex digits of the sha256 of every (argument, result) of
# cmath.exp in the run, in call order, each as four little-endian doubles
DIGESTS = {
    "bell_200003": "be1ded90ab23ef6a",
    "bell_below_threshold": "bbcf7acf99224ce5",
    "bell_defaults": "bbcf7acf99224ce5",
    "bench_bell": "be1ded90ab23ef6a",
    "bench_marginals": "4336954951b4112c",
    "bench_premeasure": "2615138cf6d04aae",
    "bench_sample": "b86751d120fc52fb",
    "bench_sweep": "5d51acd7a601c7db",
    "bench_sweep_mc": "b928346745df7d70",
    "premeasure_defaults": "ee282b9a2a908de5",
    "premeasure_dump_state": "2615138cf6d04aae",
    "premeasure_dump_state_3": "9529feee5393cb0c",
    "premeasure_dump_state_minus_pi_4": "cac3823b96ad83ca",
    "premeasure_dump_state_pi": "862ffe50b1d25c6d",
    "premeasure_dump_state_pi_2": "f837b3f338fc6a40",
    "readme_bell": "bbcf7acf99224ce5",
    "readme_premeasure": "af949973ab8dc23a",
    "readme_sample": "5c0f14ff15857fbd",
    "readme_sweep": "a76235ec26b00d4f",
    "sample_blind": "5c0f14ff15857fbd",
    "sample_single_event": "3d8e9a7abdb21eff",
    "sweep_mc_131075": "3a2f5f2c86a610ef",
    "sweep_mc_blind": "ef39eacb81824412",
    "sweep_zero_crossing": "520a043c52452ce6",
}


def exp_digests() -> dict[str, str]:
    """Each golden of CASES: the digest of the cmath.exp calls its run makes."""
    exp = cmath.exp
    digests = {}
    for name in sorted(CASES):
        bits = hashlib.sha256()

        def recorded(z):
            w = exp(z)
            bits.update(struct.pack("<4d", z.real, z.imag, w.real, w.imag))
            return w

        with mock.patch.object(cmath, "exp", recorded):
            code, _, err = run(CASES[name])
        assert code == 0, err
        digests[name] = bits.hexdigest()[:16]
    return digests


def test_libm_rounds_every_golden_phase_factor_as_when_pinned():
    got = exp_digests()
    assert sorted(got) == sorted(DIGESTS), (
        "test_golden.CASES changed: record the digests anew with"
        " PYTHONPATH=src python tests/test_libm.py"
    )
    affected = sorted(name for name in got if got[name] != DIGESTS[name])
    assert not affected, (
        "cmath.exp(1j * x) rounds differently here from the libm the goldens were pinned"
        " with (glibc 2.36, x86-64): cos and sin are not correctly rounded on every libm,"
        " so the last bits of the exact tables, and the near-zero digits of E_exact, may"
        f" differ. Goldens affected: {', '.join(affected)}. (On the pinning platform, a"
        " change to which phases the goldens evaluate shows here too: record anew.)"
    )


if __name__ == "__main__":
    print("DIGESTS = {")
    for name, digest in exp_digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
