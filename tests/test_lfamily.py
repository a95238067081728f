"""L_n generators, signatures and the extension classification rules."""

import pytest
from hypothesis import given, strategies as st

import numpy as np

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    all_sigmas,
    cr_vertex_witness,
    gen_ln,
    gen_ln_minus,
    in_dk_exactly,
    induced,
    is_diamond,
    is_transitive,
    ln_extension_is_cr,
    ln_extension_is_cr_odd,
    one_transitive_blowups,
    psi,
    sigma_from_string,
    sigma_to_signature,
    signature_to_sigma,
    switching_equivalent,
    switching_isomorphic,
    tournament_det,
    transitive_tournament,
)
from crtour.lfamily import LN_LIMIT


def test_gen_ln_small_cases():
    assert is_transitive(gen_ln(2)) == (1, 0)  # v_2 beats v_1
    assert is_diamond(gen_ln(4))
    assert tournament_det(gen_ln(6)) == 25
    with pytest.raises(InvalidArgumentError):
        gen_ln(1)


def test_gen_ln_dets_up_to_12():
    for n in range(2, 13):
        expected = (n - 1) ** 2 if n % 2 == 0 else 0
        assert tournament_det(gen_ln(n)) == expected


def test_gen_ln_exact_class_even_orders():
    for n in (2, 4, 6, 8, 10):
        assert in_dk_exactly(gen_ln(n), n - 1)


def test_gen_ln_minus_relations():
    for n in range(2, 9):
        assert switching_equivalent(gen_ln(n), gen_ln_minus(n)) == frozenset(
            {n - 1}
        )
    assert tournament_det(gen_ln_minus(6)) == 25
    assert gen_ln_minus(2) == transitive_tournament(2)


def test_last_vertex_signatures():
    # v_n alternates starting with a win in L_n, with a loss in L_n^-
    for n in (4, 5, 6, 7, 8):
        x = range(n - 1)
        assert psi(gen_ln(n), n - 1, x) == tuple(
            1 if i % 2 == 0 else -1 for i in range(n - 1)
        )
        assert psi(gen_ln_minus(n), n - 1, x) == tuple(
            -1 if i % 2 == 0 else 1 for i in range(n - 1)
        )


def test_psi_eight_chain_example():
    t = gen_ln(9)  # only the chain part matters
    sig = (1, -1, -1, -1, -1, 1, 1, -1)
    from crtour import extend

    ext = extend(induced(t, range(8)), sig)
    assert psi(ext, 8, range(8)) == (1, -4, 2, -1)


def test_psi_dominating_everything():
    from crtour import extend

    chain = transitive_tournament(5)
    ext = extend(chain, (1,) * 5)
    assert psi(ext, 5, range(5)) == (5,)


def test_psi_respects_chain_order_not_labels():
    # same vertices, scrambled labels: psi follows the transitive order
    from crtour import apply_permutation, extend

    chain = transitive_tournament(4)
    ext = extend(chain, (1, 1, -1, -1))
    scrambled = apply_permutation(ext, (2, 0, 3, 1, 4))
    assert psi(scrambled, 4, range(4)) == (2, -2)


def test_psi_rejects_non_transitive_x():
    import numpy as np

    from crtour import Tournament

    cyc = Tournament(
        np.array(
            [
                [0, 1, -1, -1],
                [-1, 0, 1, -1],
                [1, -1, 0, -1],
                [1, 1, 1, 0],
            ],
            np.int8,
        )
    )
    with pytest.raises(InvalidArgumentError):
        psi(cyc, 3, (0, 1, 2))


def test_signature_codec_examples():
    assert sigma_to_signature((1, 1, 1, -1, -1, 1)) == (3, -2, 1)
    assert signature_to_sigma((3, -2, 1)) == (1, 1, 1, -1, -1, 1)
    assert sigma_to_signature((1, 1, 1)) == (3,)
    with pytest.raises(InvalidArgumentError):
        signature_to_sigma((2, 1))
    with pytest.raises(InvalidArgumentError):
        signature_to_sigma((2, 0, -1))
    with pytest.raises(InvalidArgumentError):
        signature_to_sigma((2.5, -1))  # was truncated to (2, -1)


@given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=20))
def test_signature_codec_round_trip(sigma):
    sig = sigma_to_signature(sigma)
    assert signature_to_sigma(sig) == tuple(sigma)
    assert all(a * b < 0 for a, b in zip(sig, sig[1:]))
    assert sum(abs(a) for a in sig) == len(sigma)


def test_signature_text_form():
    from crtour import signature_from_text, signature_to_text

    assert signature_to_text((3, -2, 1)) == "3,-2,1"
    assert signature_from_text("3,-2,1") == (3, -2, 1)
    with pytest.raises(InvalidArgumentError):
        signature_from_text("3,2")
    with pytest.raises(InvalidArgumentError):
        signature_from_text("x,1")
    with pytest.raises(InvalidArgumentError):
        signature_to_text((2.5, -1))
    # validated without expanding the runs
    assert signature_from_text("99999999999999999999") == (10**20 - 1,)


def test_even_rule_examples():
    assert ln_extension_is_cr(6, sigma_from_string("+++++-"))  # t = 1
    assert not ln_extension_is_cr(6, sigma_from_string("++--+-"))  # t = 3
    for sig in all_sigmas(4):
        assert ln_extension_is_cr(4, sig)


def test_odd_rule_examples():
    # t = 2
    assert ln_extension_is_cr_odd(5, sigma_from_string("++--+"))
    # t = 1 against v_5: alpha_1 > 0 so CR needs a loss to v_5
    assert ln_extension_is_cr_odd(5, sigma_from_string("++++-"))
    assert not ln_extension_is_cr_odd(5, sigma_from_string("+++++"))
    # t = n-1 = 4
    assert ln_extension_is_cr_odd(5, sigma_from_string("+-+-+"))
    with pytest.raises(InvalidArgumentError):
        ln_extension_is_cr_odd(4, sigma_from_string("++++"))


def test_even_rule_routes_odd_orders():
    sig = sigma_from_string("++--+")
    assert ln_extension_is_cr(5, sig) == ln_extension_is_cr_odd(5, sig)


def test_rule_matches_direct_detection_even():
    for n in (4, 6):
        for minus in (False, True):
            t = gen_ln_minus(n) if minus else gen_ln(n)
            for sig in all_sigmas(n):
                predicted = ln_extension_is_cr(n, sig, minus=minus)
                actual = cr_vertex_witness(t, sig) is not None
                assert predicted == actual, (n, minus, sig)


def test_rule_matches_direct_detection_odd():
    for n in (3, 5, 7):
        for minus in (False, True):
            t = gen_ln_minus(n) if minus else gen_ln(n)
            for sig in all_sigmas(n):
                predicted = ln_extension_is_cr_odd(n, sig, minus=minus)
                actual = cr_vertex_witness(t, sig) is not None
                assert predicted == actual, (n, minus, sig)


def test_ln_plus_one_is_switched_one_blowup():
    for n in (2, 4, 6, 8):
        target = gen_ln(n + 1)
        hits = [
            b
            for b in one_transitive_blowups(gen_ln(n))
            if switching_isomorphic(target, b) is not None
        ]
        assert hits


def _ln_by_loops(n):
    arr = np.zeros((n, n), np.int8)
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            arr[i, j], arr[j, i] = 1, -1
    for i in range(n - 1):
        v = 1 if i % 2 == 0 else -1
        arr[n - 1, i], arr[i, n - 1] = v, -v
    return Tournament(arr)


def test_gen_ln_matches_loop_construction():
    for n in range(2, 41):
        assert gen_ln(n) == _ln_by_loops(n)


def test_gen_ln_refuses_orders_beyond_limit():
    with pytest.raises(ResourceLimitError):
        gen_ln(LN_LIMIT + 1)
