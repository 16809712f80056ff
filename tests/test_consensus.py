import itertools
import math
import random

import pytest

from spchain.blocks import TxCertificate, accept_bitmap, batch_vote_message, merkle_root
from spchain.consensus import (
    InsufficientQuorum,
    check_certificate,
    pin,
    pin_batch,
    select_group,
)
from spchain.signing import keypair_from_seed, sign

from tests.conftest import signed_members, subject_votes

KEYS = {mid: keypair_from_seed(mid.encode()).public_key for mid in "abcdmz"}


def test_select_group_picks_top_by_reputation():
    reps = {"a": 0.2, "b": 0.9, "c": 0.5, "d": 0.7}
    group = select_group(reps, 2, KEYS)
    assert [m.miner_id for m in group.members] == ["b", "d"]
    assert [m.weight for m in group.members] == [0.9, 0.7]


def test_select_group_breaks_ties_by_id():
    reps = {"z": 0.5, "a": 0.5, "m": 0.5}
    group = select_group(reps, 2, KEYS)
    assert [m.miner_id for m in group.members] == ["a", "m"]


def test_select_group_needs_enough_miners():
    with pytest.raises(ValueError, match="at least 3"):
        select_group({"a": 0.1, "b": 0.2}, 3, KEYS)
    with pytest.raises(ValueError):
        select_group({"a": 0.1}, 0, KEYS)


def test_select_group_attaches_public_keys():
    group = select_group({"a": 1.0}, 1, public_keys=KEYS, epoch=7)
    assert group.members[0].public_key == KEYS["a"]
    assert group.epoch == 7


# -- pinning -------------------------------------------------------------------


def signed_trio():
    return signed_members((1.0, 1.0, 1.0))


def test_pin_full_vote_produces_certificate():
    group, keypairs = signed_trio()
    subject = b"\x11" * 32
    votes = subject_votes(subject, group, keypairs)
    cert = pin(subject, list(votes.values()), group)
    assert isinstance(cert, TxCertificate)
    check_certificate(subject, cert, group)
    assert [s.signer_id for s in cert.signers] == ["m0", "m1", "m2"]


def test_pin_two_of_three_equal_weights_fails_weight_rule():
    group, keypairs = signed_trio()
    subject = b"\x12" * 32
    votes = subject_votes(subject, group, keypairs)
    outcome = pin(subject, [votes[mid] for mid in ("m0", "m1")], group)
    assert isinstance(outcome, InsufficientQuorum)
    assert outcome.vote_count == 2
    assert outcome.required_count == 2  # count rule was satisfied
    assert outcome.vote_weight == pytest.approx(2.0)  # but 2.0 is not > 2.0


def test_pin_ignores_outsiders_duplicates_and_bad_signatures():
    group, keypairs = signed_trio()
    subject = b"\x13" * 32
    votes = subject_votes(subject, group, keypairs)
    message = batch_vote_message(0, merkle_root([subject]), b"\x01")
    outcome = pin(subject, [
        votes["m0"],
        votes["m0"],  # a repeated vote counts for nothing, as in pin_batch
        subject_votes(b"other subject", group, keypairs)["m1"],  # bad signature
        ("intruder", b"\x01", sign(message, keypair_from_seed(b"stranger"))),  # not a member
        votes["m2"],
    ], group)
    assert isinstance(outcome, InsufficientQuorum)
    assert outcome.vote_count == 1
    assert sorted(outcome.ignored) == ["intruder", "m0", "m0", "m1"]


# -- batch votes ---------------------------------------------------------------

BATCH = [bytes([i]) * 32 for i in range(4)]


def batch_vote(mid, keypairs, accepts, tx_ids=BATCH, epoch=0):
    bitmap = accept_bitmap(accepts)
    message = batch_vote_message(epoch, merkle_root(tx_ids), bitmap)
    return (mid, bitmap, sign(message, keypairs[mid]))


def test_pin_batch_full_vote_certifies_every_tx():
    group, keypairs = signed_trio()
    votes = [batch_vote(mid, keypairs, [True] * 4) for mid in keypairs]
    tally = pin_batch(BATCH, votes, group)
    assert tally.ignored == ()
    for index, cert in enumerate(tally.outcomes):
        assert isinstance(cert, TxCertificate)
        assert cert.index == index and cert.batch_root == merkle_root(BATCH)
        assert [s.signer_id for s in cert.signers] == ["m0", "m1", "m2"]
        check_certificate(BATCH[index], cert, group)


def bad_votes(kind, keypairs):
    """m2's vote on BATCH, spoiled one way; m0 and m1 vote honestly."""
    honest = batch_vote("m2", keypairs, [True] * 4)
    if kind == "tampered bitmap":
        return [("m2", accept_bitmap([True, False, True, True]), honest[2])]
    if kind == "bad signature":
        return [batch_vote("m2", keypairs, [True] * 4, epoch=1)]
    if kind == "wrong width":
        return [batch_vote("m2", keypairs, [True] * 9)]
    if kind == "duplicate":
        return [honest, batch_vote("m2", keypairs, [False] * 4)]
    raise AssertionError(kind)


@pytest.mark.parametrize(
    "kind", ["tampered bitmap", "bad signature", "wrong width", "duplicate"]
)
def test_pin_batch_ignores_a_bad_vote_for_the_whole_batch(kind):
    group, keypairs = signed_trio()
    votes = [batch_vote(mid, keypairs, [True] * 4) for mid in ("m0", "m1")]
    tally = pin_batch(BATCH, votes + bad_votes(kind, keypairs), group)
    assert set(tally.ignored) == {"m2"}
    for outcome in tally.outcomes:
        # m2 counts for no transaction: 2 of 3 equal weights is not > 2/3
        assert isinstance(outcome, InsufficientQuorum)
        assert outcome.vote_count == 2
        assert "m2" in outcome.ignored


def test_pin_batch_ignores_non_member():
    group, keypairs = signed_trio()
    keypairs = dict(keypairs, intruder=keypair_from_seed(b"stranger"))
    votes = [batch_vote(mid, keypairs, [True] * 4) for mid in keypairs]
    tally = pin_batch(BATCH, votes, group)
    assert tally.ignored == ("intruder",)
    for cert in tally.outcomes:
        assert isinstance(cert, TxCertificate)
        assert [s.signer_id for s in cert.signers] == ["m0", "m1", "m2"]


def test_pin_batch_inhibitor_sinks_only_the_victims_txs():
    """In an equal-weight trio, m2's zero bits leave the victim's
    transactions (indices 1 and 3) with 2 of 3 votes: the count rule holds,
    the weight rule fails. The other transactions are certified by all."""
    group, keypairs = signed_trio()
    victim = [False, True, False, True]
    votes = [batch_vote(mid, keypairs, [True] * 4) for mid in ("m0", "m1")]
    votes.append(batch_vote("m2", keypairs, [not v for v in victim]))
    tally = pin_batch(BATCH, votes, group)
    assert tally.ignored == ()
    for index, outcome in enumerate(tally.outcomes):
        if victim[index]:
            assert isinstance(outcome, InsufficientQuorum)
            assert (outcome.vote_count, outcome.required_count) == (2, 2)
            assert outcome.vote_weight == pytest.approx(2.0)
            assert outcome.required_weight == pytest.approx(2.0)
        else:
            assert isinstance(outcome, TxCertificate)
            assert len(outcome.signers) == 3


def signed_group(weights, subject):
    """A group with one real keypair per member, and each member's vote on
    the one-entry batch ``[subject]``."""
    group, keypairs = signed_members(weights)
    return group, subject_votes(subject, group, keypairs)


def test_pin_weighted_example():
    subject = b"\x14" * 32
    group, votes = signed_group((5.0, 1.0, 0.5), subject)
    # m0+m1: count 2 >= 2 and weight 6.0 > 2/3 * 6.5
    cert = pin(subject, [votes[m] for m in ("m0", "m1")], group)
    assert isinstance(cert, TxCertificate)
    # m1+m2: count ok but weight 1.5 is far below the bar
    outcome = pin(subject, [votes[m] for m in ("m1", "m2")], group)
    assert isinstance(outcome, InsufficientQuorum)


def test_exhaustive_safety_small_groups():
    """For X <= 5 and assorted weights: any two vote sets that both reach
    quorum share an honest member whenever the adversarial coalition is
    below one third by count and at most one third by weight. An honest
    member signs one side only, so conflicting certificates cannot both
    form."""
    rng = random.Random(77)
    for x in range(1, 6):
        weight_sets = [[1.0] * x] + [
            [1.0 + rng.random() * 3 for _ in range(x)] for _ in range(3)
        ]
        for weights in weight_sets:
            total = sum(weights)
            subject = b"\x15" * 32
            group, signed = signed_group(weights, subject)
            ids = list(range(x))

            def reaches_quorum(subset):
                votes = [signed[f"m{i}"] for i in subset]
                return isinstance(pin(subject, votes, group), TxCertificate)

            quorums = [
                frozenset(s)
                for r in range(x + 1)
                for s in itertools.combinations(ids, r)
                if reaches_quorum(s)
            ]
            for size in range(math.ceil(x / 3)):
                for coalition in itertools.combinations(ids, size):
                    if sum(weights[i] for i in coalition) > total / 3:
                        continue
                    bad = frozenset(coalition)
                    assert not reaches_quorum(bad)  # adversary alone can't pin
                    for s1 in quorums:
                        for s2 in quorums:
                            assert (s1 & s2) - bad, (x, weights, coalition)
