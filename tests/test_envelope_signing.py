import contextlib
import dataclasses
import os
import random
import select
import signal
import subprocess
import sys
import time

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
    inner = unseal_layer(sealed, institution_key)
    assert unseal_layer(inner, patient_key) == b"blood panel: normal"


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
        unseal_layer(sealed, stranger)
    inner = unseal_layer(sealed, institution_key)
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(inner, stranger)


def test_layer_order_enforced():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    # the patient key cannot open the outer layer
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(sealed, patient_key)


def test_tampered_ciphertext_rejected():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    corrupted = bytearray(sealed.ciphertext)
    corrupted[-1] ^= 0x01
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(bytes(corrupted), institution_key)


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


def counting_inline(monkeypatch):
    """The triples verified inline in this process from now on."""
    inline = []
    real_verify = signing._verify_inline

    def verify(*triple):
        inline.append(triple)
        return real_verify(*triple)

    monkeypatch.setattr(signing, "_verify_inline", verify)
    return inline


def answer_all(seconds=10.0):
    """Wait until the worker has answered every triple in flight, so a
    check takes its verdict and verifies none inline; a reply still
    missing after ``seconds`` fails the test."""
    held = signing._worker
    deadline = time.monotonic() + seconds
    while held.in_flight:
        left = max(0.0, deadline - time.monotonic())
        assert select.select([held.replies], [], [], left)[0], "a reply never came"
        held._receive()


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


def signed_triples(count):
    """``count`` validly signed (message, signature, key) triples."""
    kp = keypair_from_seed(b"signer")
    messages = [b"record %d" % i for i in range(count)]
    return [(m, sign(m, kp), kp.public_key) for m in messages]


def test_worker_verdicts_equal_inline_verdicts(worker, monkeypatch):
    triples = [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    assert expected == [True] + [False] * 5
    verify_ahead(triples)
    answer_all()
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
    answer_all()
    monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
    assert ChainState().validate_tx(forged) == (False, BAD_SIGNATURE)
    assert triple not in signing._worker.verdicts


def test_a_verdict_is_used_only_for_its_own_triple_and_once(worker, monkeypatch):
    kp, other = keypair_from_seed(b"signer"), keypair_from_seed(b"other")
    sig = sign(b"message", kp)
    verify_ahead([(b"message", sig, kp.public_key)])
    answer_all()
    inline = counting_inline(monkeypatch)
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
    triples = signed_triples(200) + [triple for _, triple in verdict_table()]
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


def test_a_triple_written_in_two_parts_gets_the_inline_verdict(worker, monkeypatch):
    """The second part is written after the worker has polled past
    ``SPIN_S`` and gone to sleep; no byte is lost in the switch."""
    triples = [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    real_write = signing._Worker._write
    cuts = []

    def write_in_two_parts(self, data):
        # inside the first length, the middle, before the last byte
        cut = (2, len(data) // 2, len(data) - 1)[len(cuts) % 3]
        cuts.append(cut)
        real_write(self, data[:cut])
        time.sleep(10 * signing.SPIN_S)
        real_write(self, data[cut:])

    monkeypatch.setattr(signing._Worker, "_write", write_in_two_parts)
    verdicts = []
    for triple in triples:
        verify_ahead([triple])
        # the worker is forked by now; the parent may not verify
        monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
        # a worker that lost a byte would wait for more, and never answer
        assert select.select([signing._worker.replies], [], [], 10.0)[0]
        verdicts.append(verify_sig(*triple))
    assert verdicts == expected
    assert len(cuts) == len(triples)


@contextlib.contextmanager
def stopped(pid):
    """The worker stopped by SIGSTOP for the block; SIGCONT on the way
    out, whatever happens in it."""
    os.kill(pid, signal.SIGSTOP)
    try:
        os.waitpid(pid, os.WUNTRACED)
        yield
    finally:
        os.kill(pid, signal.SIGCONT)


@contextlib.contextmanager
def within(seconds):
    """Fail, rather than hang, if the block blocks for ``seconds``."""

    def expire(signum, frame):
        # not an OSError, which verify_sig takes for a worker failure
        raise AssertionError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def start_worker():
    """Fork the worker on a check of its own, answered and claimed; return
    it, holding no verdict."""
    kp = keypair_from_seed(b"warm-up")
    triple = (b"warm-up", sign(b"warm-up", kp), kp.public_key)
    verify_ahead([triple])
    answer_all()
    assert verify_sig(*triple)
    return signing._worker


def test_a_stopped_worker_stalls_no_check(worker, monkeypatch):
    triples = signed_triples(50) + [triple for _, triple in verdict_table()]
    expected = [signing._verify_inline(*triple) for triple in triples]
    held = start_worker()
    inline = counting_inline(monkeypatch)
    with stopped(held.pid):
        verify_ahead(triples)
        with within(5.0):
            assert [verify_sig(*triple) for triple in triples] == expected
        # each was taken from the queue and verified inline, once
        assert sorted(inline) == sorted(triples)
    # the worker skips every taken triple, and answers later ones itself
    answer_all()
    assert signing._worker is held and held.verdicts == {}
    verify_ahead(triples)
    answer_all()
    monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
    assert [verify_sig(*triple) for triple in triples] == expected
    assert signing._worker is held


def test_a_taken_triple_sent_again_gets_the_workers_verdict(worker, monkeypatch):
    table = dict(verdict_table())
    valid, forged = table["valid"], table["flipped signature bit"]
    held = start_worker()
    with stopped(held.pid):
        verify_ahead([valid, forged])
        with within(5.0):
            assert verify_sig(*valid) and not verify_sig(*forged)
        verify_ahead([valid, forged])
        assert held.verdicts == {valid: None, forged: None}
    monkeypatch.setattr(signing, "_verify_inline", forbid_inline)
    # two skips, then a verdict on each triple sent again: a skip taken
    # for a verdict would read False for the valid one or True for the
    # forged one, and be kept over the worker's
    answer_all()
    assert held.verdicts == {valid: True, forged: False}
    assert verify_sig(*valid) and not verify_sig(*forged)


def test_no_reply_is_lost_or_extra_when_the_two_sides_share_work(worker, monkeypatch):
    triples = signed_triples(40) + [triple for _, triple in verdict_table()]
    expected = dict(zip(triples, [signing._verify_inline(*triple) for triple in triples]))
    first, second = triples[:20], triples[20:]
    # a short ring of slots, reused many times over below
    monkeypatch.setattr(signing, "VERDICTS_MAX", 32)
    held = start_worker()
    inline = counting_inline(monkeypatch)
    with stopped(held.pid):
        verify_ahead(first)
        with within(5.0):
            # newest first: each claim takes just its own triple
            for triple in reversed(first[10:]):
                assert verify_sig(*triple) == expected[triple]
        assert sorted(inline) == sorted(first[10:])
    # the worker skips ten and checks ten, while more arrive and the two
    # sides split those as it happens
    with within(10.0):
        verify_ahead(second)
        for triple in first[:10] + second:
            assert verify_sig(*triple) == expected[triple]
        answer_all()
    assert signing._worker is held
    assert held.verdicts == {} and not held.in_flight
    assert held.sent == 1 + len(triples)
    # batches claimed in random order, some left unclaimed and sent again
    # or dropped
    rng = random.Random(7)
    with within(30.0):
        for _ in range(30):
            batch = rng.sample(triples, 20)
            verify_ahead(batch)
            rng.shuffle(batch)
            for triple in batch[:15]:
                assert verify_sig(*triple) == expected[triple]
        answer_all()
    assert signing._worker is held and not held.in_flight
    assert all(verdict == expected[triple] for triple, verdict in held.verdicts.items())
    # and no reply comes after the last one due
    assert not select.select([held.replies], [], [], 0.05)[0]


def cpu_seconds(pid):
    """The user plus system CPU time of process ``pid``, from
    ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        # the fields after the parenthesised command name; utime and
        # stime are fields 14 and 15 of the whole line
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_an_idle_worker_sleeps(worker):
    kp = keypair_from_seed(b"signer")
    triple = (b"message", sign(b"message", kp), kp.public_key)
    verify_ahead([triple])
    pid = signing._worker.pid
    if not os.path.exists(f"/proc/{pid}/stat"):
        pytest.skip("no /proc/<pid>/stat to read the worker's CPU time from")
    assert verify_sig(*triple)
    # the worker polls for SPIN_S after its last verdict, then sleeps
    time.sleep(20 * signing.SPIN_S)
    before = cpu_seconds(pid)
    time.sleep(0.2)
    assert cpu_seconds(pid) - before < 0.010


def test_stop_worker_reaps_a_polling_worker(worker, monkeypatch):
    # the worker is forked with this SPIN_S, so it is still polling when
    # it is stopped
    monkeypatch.setattr(signing, "SPIN_S", 60.0)
    kp = keypair_from_seed(b"signer")
    triple = (b"message", sign(b"message", kp), kp.public_key)
    verify_ahead([triple])
    pid = signing._worker.pid
    assert verify_sig(*triple)
    start = time.monotonic()
    signing.stop_worker()
    assert time.monotonic() - start < 1.0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


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
