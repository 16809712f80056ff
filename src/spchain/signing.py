"""Ed25519 signatures with seed-deterministic key derivation.

Signature checks can be made ahead of time in one forked worker process:
``verify_ahead`` sends it (message, signature, public key) triples, and
``verify_sig`` takes its verdict on an identical triple instead of
verifying inline. It is a process, not a thread, because ``cryptography``'s
``verify`` holds the GIL. The worker is forked on the first
``verify_ahead``; a process forked after that starts its own. Any pipe or
worker failure stops the worker and drops its verdicts, and every later
check in the process is made inline.
"""

from __future__ import annotations

import atexit
import collections
import functools
import gc
import hashlib
import os
import signal
import struct
from dataclasses import dataclass, field
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

# verdicts held for triples sent ahead, in flight or not yet claimed; past
# this the oldest is dropped, and its triple is verified inline if asked
# for. Also the most triples in flight: far below a pipe's 64 KiB of
# one-byte verdicts, so the worker never blocks on its replies
VERDICTS_MAX = 4096

# each field of a triple on the wire: its length, then its bytes
_LEN = struct.Struct(">I")

Triple = tuple[bytes, bytes, bytes]


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    # built once: loading the key costs as much as a signature
    private_key: Ed25519PrivateKey = field(repr=False, compare=False)


def keypair_from_seed(seed: bytes) -> KeyPair:
    sk = Ed25519PrivateKey.from_private_bytes(
        hashlib.sha256(b"spchain/sigkey/" + seed).digest()
    )
    return KeyPair(public_key=sk.public_key().public_bytes_raw(), private_key=sk)


def sign(msg: bytes, keypair: KeyPair) -> bytes:
    return keypair.private_key.sign(msg)


@functools.lru_cache(maxsize=4096)
def _load_public_key(public_key: bytes) -> Ed25519PublicKey:
    """Each member and patient key verifies many signatures, so it is
    loaded once; a malformed key raises on every call, as the cache keeps
    no exceptions."""
    return Ed25519PublicKey.from_public_bytes(public_key)


def _verify_inline(msg: bytes, signature: bytes, public_key: bytes) -> bool:
    try:
        _load_public_key(public_key).verify(signature, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_sig(msg: bytes, signature: bytes, public_key: bytes) -> bool:
    """Deterministic verification; malformed inputs return False. The
    worker's verdict on this exact triple is used once, waited for if it is
    still in flight; any other triple is verified inline."""
    worker = _worker
    if worker is not None and worker.verdicts:
        try:
            verdict = worker.claim((msg, signature, public_key))
        except OSError:
            _fail()
            verdict = None
        if verdict is not None:
            return verdict
    return _verify_inline(msg, signature, public_key)


def verify_ahead(triples: list[Triple]) -> None:
    """Have the worker check these (message, signature, public key)
    triples while the caller goes on; ``verify_sig`` collects the
    verdicts."""
    global _worker
    if not triples or _failed:
        return
    try:
        if _worker is None:
            _worker = _Worker()
        _worker.send(triples)
    except OSError:
        _fail()


def stop_worker() -> None:
    """Close the worker's pipes and reap it: it exits at the end of its
    requests. Its verdicts are dropped, and a later ``verify_ahead`` starts
    a new worker."""
    global _worker, _failed
    worker, _worker, _failed = _worker, None, False
    if worker is not None:
        worker.close()
        worker.reap()


def _fail() -> None:
    """Verify inline from now on in this process."""
    global _failed
    stop_worker()
    _failed = True


class _Worker:
    """The parent's end of a forked verifier, and the verdicts it sent.

    Requests are triples, each field length-prefixed; the worker answers
    each with one byte, 1 for a valid signature, in the order sent."""

    def __init__(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        request_r, self.requests, self.replies, reply_w = fds
        if self.pid == 0:
            os.close(self.requests)
            os.close(self.replies)
            _serve(request_r, reply_w)
        os.close(request_r)
        os.close(reply_w)
        # True or False once answered, None while in flight
        self.verdicts: dict[Triple, Optional[bool]] = {}
        self.in_flight: collections.deque[Triple] = collections.deque()

    def send(self, triples: list[Triple]) -> None:
        verdicts, out = self.verdicts, []
        for triple in triples:
            if triple in verdicts:
                continue
            while len(self.in_flight) >= VERDICTS_MAX:
                self._write(b"".join(out))
                out.clear()
                self._receive()
            if len(verdicts) >= VERDICTS_MAX:
                del verdicts[next(iter(verdicts))]
            verdicts[triple] = None
            self.in_flight.append(triple)
            for part in triple:
                out.append(_LEN.pack(len(part)))
                out.append(part)
        self._write(b"".join(out))

    def claim(self, triple: Triple) -> Optional[bool]:
        """The verdict on ``triple``, taken out of the store; None if it
        was not sent or was dropped."""
        verdicts = self.verdicts
        if triple not in verdicts:
            return None
        while verdicts[triple] is None:
            self._receive()
        return verdicts.pop(triple)

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self.requests, view) :]

    def _receive(self) -> None:
        """Record the verdicts that have arrived, waiting for at least
        one."""
        data = os.read(self.replies, 1 << 16)
        if not data or len(data) > len(self.in_flight):
            raise BrokenPipeError("the verify worker stopped answering")
        verdicts, in_flight = self.verdicts, self.in_flight
        for byte in data:
            triple = in_flight.popleft()
            # a dropped triple, or a repeat sent after its drop, may be gone
            if triple in verdicts and verdicts[triple] is None:
                verdicts[triple] = byte == 1

    def close(self) -> None:
        os.close(self.requests)
        os.close(self.replies)

    def reap(self) -> None:
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


def _serve(requests: int, replies: int) -> None:
    """The worker's loop: verify each triple read from ``requests`` and
    answer on ``replies``; exit at the end of the requests or on any
    error, without running the parent's exit handlers."""
    try:
        # the loop makes no cycles, and a collection would touch, and so
        # copy, every page of the parent's heap
        gc.disable()
        # the parent's Ctrl-C ends the worker through the closed pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(requests, "rb") as stream:
            read = stream.read
            while True:
                triple = []
                for _ in range(3):
                    head = read(4)
                    if len(head) < 4:
                        return
                    (size,) = _LEN.unpack(head)
                    part = read(size)
                    if len(part) < size:
                        return
                    triple.append(part)
                os.write(replies, b"\x01" if _verify_inline(*triple) else b"\x00")
    finally:
        os._exit(0)


def _forget_worker() -> None:
    """In a forked child: drop the parent's worker without waiting for it;
    the child starts its own on its first ``verify_ahead``."""
    global _worker, _failed
    worker, _worker, _failed = _worker, None, False
    if worker is not None:
        worker.close()


_worker: Optional[_Worker] = None
_failed = False
atexit.register(stop_worker)
os.register_at_fork(after_in_child=_forget_worker)


def address_of(public_key: bytes) -> str:
    """Short stable identifier derived from a public key."""
    return hashlib.sha256(public_key).hexdigest()[:20]
