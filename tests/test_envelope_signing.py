import dataclasses
import os
import signal
import subprocess
import sys

import pytest

from spchain import signing
from spchain.chain import BAD_SIGNATURE, ChainState
from spchain.envelope import (
    EnvelopeAuthError,
    seal_emr,
    symmetric_key_from_seed,
    unseal_layer,
)
from spchain.signing import address_of, keypair_from_seed, sign, verify_ahead, verify_sig
from spchain.tx import RegisterPayload, TxType, build_tx

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def keys():
    return symmetric_key_from_seed(b"patient-1"), symmetric_key_from_seed(b"hospital-1")


def test_double_envelope_roundtrip():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"blood panel: normal", patient_key, institution_key)
    inner = unseal_layer(sealed, institution_key, "outer")
    assert unseal_layer(inner, patient_key, "inner") == b"blood panel: normal"


def test_deterministic_sealing():
    patient_key, institution_key = keys()
    a = seal_emr(b"x", patient_key, institution_key)
    b = seal_emr(b"x", patient_key, institution_key)
    assert a == b
    assert a.plaintext_len == 1


def test_wrong_key_fails_closed():
    patient_key, institution_key = keys()
    stranger = symmetric_key_from_seed(b"someone-else")
    sealed = seal_emr(b"secret", patient_key, institution_key)
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(sealed, stranger, "outer")
    inner = unseal_layer(sealed, institution_key, "outer")
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(inner, stranger, "inner")


def test_layer_order_enforced():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    # the patient key cannot open the outer layer
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(sealed, patient_key, "outer")


def test_tampered_ciphertext_rejected():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    corrupted = bytearray(sealed.ciphertext)
    corrupted[-1] ^= 0x01
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(bytes(corrupted), institution_key, "outer")


def test_key_ids_recorded():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    assert sealed.patient_key_id == patient_key.key_id
    assert sealed.institution_key_id == institution_key.key_id


# -- signatures ---------------------------------------------------------------


def test_sign_verify_roundtrip():
    kp = keypair_from_seed(b"signer")
    sig = sign(b"message", kp)
    assert verify_sig(b"message", sig, kp.public_key)


def test_seed_determinism():
    assert keypair_from_seed(b"s").public_key == keypair_from_seed(b"s").public_key
    assert keypair_from_seed(b"s").public_key != keypair_from_seed(b"t").public_key


def test_verify_rejects_tampering():
    kp = keypair_from_seed(b"signer")
    other = keypair_from_seed(b"other")
    sig = sign(b"message", kp)
    assert not verify_sig(b"message2", sig, kp.public_key)
    assert not verify_sig(b"message", sig, other.public_key)
    assert not verify_sig(b"message", sig[:-1], kp.public_key)
    assert not verify_sig(b"message", b"", kp.public_key)
    assert not verify_sig(b"message", sig, b"not-a-key")


def test_each_key_is_loaded_once_and_a_malformed_one_every_time(key_loads):
    kp = keypair_from_seed(b"signer")
    sig = sign(b"message", kp)
    assert verify_sig(b"message", sig, kp.public_key)
    assert verify_sig(b"message", sig, kp.public_key)
    assert not verify_sig(b"message", sig, b"not-a-key")
    assert not verify_sig(b"message", sig, b"not-a-key")
    # a failed load is not cached, so the malformed key is tried again
    assert key_loads == [kp.public_key, b"not-a-key", b"not-a-key"]


def test_address_is_truncated_pk_hash():
    kp = keypair_from_seed(b"signer")
    addr = address_of(kp.public_key)
    assert len(addr) == 20  # truncated hex content hash
    assert addr == address_of(kp.public_key)
    int(addr, 16)  # valid hex


# -- the verify worker ----------------------------------------------------------


@pytest.fixture
def worker():
    """No worker when the test starts, and none left when it ends."""
    signing.stop_worker()
    yield
    signing.stop_worker()


def forbid_inline(*triple):
    raise AssertionError(f"verified inline: {triple!r}")


def verdict_table():
    """(case, triple) rows with one valid signature and each way to break
    it."""
    kp, other = keypair_from_seed(b"signer"), keypair_from_seed(b"other")
    msg = b"medical transaction body"
    sig = sign(msg, kp)
    return [
        ("valid", (msg, sig, kp.public_key)),
        ("flipped signature bit", (msg, bytes([sig[0] ^ 1]) + sig[1:], kp.public_key)),
        ("wrong key", (msg, sig, other.public_key)),
        ("malformed key", (msg, sig, b"not-a-key")),
        ("truncated signature", (msg, sig[:-1], kp.public_key)),
        ("message off by one byte", (msg[:-1] + bytes([msg[-1] ^ 1]), sig, kp.public_key)),
    ]


def test_worker_verdicts_equal_inline_verdicts(worker, monkeypatch):
    triples = [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    assert expected == [True] + [False] * 5
    verify_ahead(triples)
    # the worker was forked with the real check; the parent may not use it
    monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
    assert [verify_sig(*triple) for triple in triples] == expected
    assert signing._worker.verdicts == {}


def test_a_forged_tx_sent_to_the_worker_gets_bad_signature(worker, monkeypatch):
    tx = build_tx(
        TxType.REGISTER, RegisterPayload("inst", b"identity"), keypair_from_seed(b"patient")
    )
    forged = dataclasses.replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
    triple = (forged.body, forged.signature, forged.sender_pk)
    verify_ahead([triple])
    monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
    assert ChainState().validate_tx(forged) == (False, BAD_SIGNATURE)
    assert triple not in signing._worker.verdicts


def test_a_verdict_is_used_only_for_its_own_triple_and_once(worker, monkeypatch):
    kp, other = keypair_from_seed(b"signer"), keypair_from_seed(b"other")
    sig = sign(b"message", kp)
    verify_ahead([(b"message", sig, kp.public_key)])
    inline = []
    real_verify = signing._verify_inline

    def counting_verify(*triple):
        inline.append(triple)
        return real_verify(*triple)

    monkeypatch.setattr(signing, "_verify_inline", counting_verify)
    # the same message and signature under another key is checked anew
    assert not verify_sig(b"message", sig, other.public_key)
    assert inline == [(b"message", sig, other.public_key)]
    assert verify_sig(b"message", sig, kp.public_key)
    assert len(inline) == 1
    # the verdict was taken out of the store: the next check is inline
    assert verify_sig(b"message", sig, kp.public_key)
    assert inline[1:] == [(b"message", sig, kp.public_key)]


def test_unclaimed_verdicts_stay_within_the_bound(worker):
    kp = keypair_from_seed(b"signer")
    sig = sign(b"m", kp)
    triples = [(b"m%d" % i, sig, kp.public_key) for i in range(5000)]
    verify_ahead(triples)
    held = signing._worker
    assert len(held.verdicts) <= signing.VERDICTS_MAX
    assert len(held.in_flight) <= signing.VERDICTS_MAX
    assert triples[-1] in held.verdicts and triples[0] not in held.verdicts
    # a dropped triple is checked inline, a held one by the worker
    assert not verify_sig(*triples[0])
    assert not verify_sig(*triples[-1])
    assert triples[-1] not in held.verdicts


def test_every_check_survives_a_killed_worker(worker):
    kp = keypair_from_seed(b"signer")
    messages = [b"record %d" % i for i in range(200)]
    triples = [(m, sign(m, kp), kp.public_key) for m in messages]
    triples += [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    verify_ahead(triples)
    pid = signing._worker.pid
    os.kill(pid, signal.SIGKILL)
    # answered, in flight and unsent triples alike get the inline verdict
    assert [verify_sig(*triple) for triple in triples] == expected
    assert signing._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    # later checks are made inline, and correctly
    verify_ahead(triples)
    assert signing._worker is None
    assert [verify_sig(*triple) for triple in triples] == expected


def test_a_forked_process_starts_its_own_worker(worker):
    triples = [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    verify_ahead(triples[:1])
    parent_worker = signing._worker.pid
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            ok = signing._worker is None
            verify_ahead(triples)
            ok = ok and signing._worker.pid not in (None, parent_worker)
            ok = ok and [verify_sig(*triple) for triple in triples] == expected
            signing.stop_worker()
            os.write(write_end, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.read() == b"1"
    os.waitpid(child, 0)
    # the child closed its copy of the parent's pipes, not the parent's
    assert signing._worker.pid == parent_worker
    assert triples[0] in signing._worker.verdicts
    assert verify_sig(*triples[0])


def test_the_worker_is_reaped_when_its_parent_exits():
    assert os.path.isdir("/proc/self")
    script = (
        "from spchain import signing\n"
        "from spchain.sim import run_scenario\n"
        "from spchain.simconfig import ScenarioConfig\n"
        "run_scenario(ScenarioConfig(seed=1, rounds=4, miner_count=3, group_size=3,"
        " patient_count=4, patient_arrival_per_round=4, upload_rate=1.0))\n"
        "print(signing._worker.pid)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    pid = int(proc.stdout.split()[-1])
    # neither running nor a zombie
    assert not os.path.exists(f"/proc/{pid}")
