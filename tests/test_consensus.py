import itertools
import math
import random

import pytest

from spchain.blocks import PinCertificate, certificate_meets_quorum
from spchain.consensus import (
    ConsensusGroup,
    GroupMember,
    InsufficientQuorum,
    pin,
    select_group,
)
from spchain.signing import keypair_from_seed, sign


def test_select_group_picks_top_by_reputation():
    reps = {"a": 0.2, "b": 0.9, "c": 0.5, "d": 0.7}
    group = select_group(reps, 2)
    assert [m.miner_id for m in group.members] == ["b", "d"]
    assert [m.weight for m in group.members] == [0.9, 0.7]


def test_select_group_breaks_ties_by_id():
    reps = {"z": 0.5, "a": 0.5, "m": 0.5}
    group = select_group(reps, 2)
    assert [m.miner_id for m in group.members] == ["a", "m"]


def test_select_group_needs_enough_miners():
    with pytest.raises(ValueError, match="at least 3"):
        select_group({"a": 0.1, "b": 0.2}, 3)
    with pytest.raises(ValueError):
        select_group({"a": 0.1}, 0)


def test_select_group_attaches_public_keys():
    pk = keypair_from_seed(b"a").public_key
    group = select_group({"a": 1.0}, 1, public_keys={"a": pk}, epoch=7)
    assert group.members[0].public_key == pk
    assert group.epoch == 7


# -- pinning -------------------------------------------------------------------


def signed_trio():
    keypairs = {f"m{i}": keypair_from_seed(b"cons/%d" % i) for i in range(3)}
    members = tuple(
        GroupMember(miner_id=mid, weight=1.0, public_key=kp.public_key)
        for mid, kp in sorted(keypairs.items())
    )
    return ConsensusGroup(members=members, epoch=0), keypairs


def test_pin_full_vote_produces_certificate():
    group, keypairs = signed_trio()
    subject = b"\x11" * 32
    votes = [(mid, sign(subject, kp)) for mid, kp in keypairs.items()]
    cert = pin(subject, votes, group)
    assert isinstance(cert, PinCertificate)
    assert certificate_meets_quorum(cert)
    assert [s.signer_id for s in cert.signers] == ["m0", "m1", "m2"]


def test_pin_two_of_three_equal_weights_fails_weight_rule():
    group, keypairs = signed_trio()
    subject = b"\x12" * 32
    votes = [(mid, sign(subject, keypairs[mid])) for mid in ("m0", "m1")]
    outcome = pin(subject, votes, group)
    assert isinstance(outcome, InsufficientQuorum)
    assert outcome.vote_count == 2
    assert outcome.required_count == 2  # count rule was satisfied
    assert outcome.vote_weight == pytest.approx(2.0)  # but 2.0 is not > 2.0


def test_pin_ignores_outsiders_duplicates_and_bad_signatures():
    group, keypairs = signed_trio()
    subject = b"\x13" * 32
    stranger = keypair_from_seed(b"stranger")
    votes = [
        ("m0", sign(subject, keypairs["m0"])),
        ("m0", sign(subject, keypairs["m0"])),  # duplicate counts once
        ("m1", sign(b"other subject", keypairs["m1"])),  # bad signature
        ("intruder", sign(subject, stranger)),  # not a member
        ("m2", sign(subject, keypairs["m2"])),
    ]
    outcome = pin(subject, votes, group)
    assert isinstance(outcome, InsufficientQuorum)
    assert outcome.vote_count == 2
    assert set(outcome.ignored) == {"m1", "intruder"}


def signed_group(weights, subject):
    """A group with one real keypair per member, and each member's vote."""
    keypairs = [keypair_from_seed(b"cons/%d" % i) for i in range(len(weights))]
    members = tuple(
        GroupMember(f"m{i}", w, kp.public_key)
        for i, (w, kp) in enumerate(zip(weights, keypairs))
    )
    votes = {f"m{i}": sign(subject, kp) for i, kp in enumerate(keypairs)}
    return ConsensusGroup(members=members, epoch=0), votes


def test_pin_weighted_example():
    subject = b"\x14" * 32
    group, votes = signed_group((5.0, 1.0, 0.5), subject)
    # m0+m1: count 2 >= 2 and weight 6.0 > 2/3 * 6.5
    cert = pin(subject, [(m, votes[m]) for m in ("m0", "m1")], group)
    assert isinstance(cert, PinCertificate)
    # m1+m2: count ok but weight 1.5 is far below the bar
    outcome = pin(subject, [(m, votes[m]) for m in ("m1", "m2")], group)
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
                votes = [(f"m{i}", signed[f"m{i}"]) for i in subset]
                return isinstance(pin(subject, votes, group), PinCertificate)

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
