"""Known-answer vectors for the SHA-256-CTR AEAD, the DRBG and HKDF.

The digests were produced by the byte-at-a-time reference keystream and
the ``out +=`` DRBG/HKDF loops, so any faster rewrite must reproduce
them exactly.  The swap vector pins what the EPC swap path writes to the
untrusted store, and the machine state hash after it, on a tiny EPC.
"""

import hashlib

import pytest

from repro.crypto.cipher import Drbg, aead_decrypt, aead_encrypt
from repro.crypto.hashes import hkdf
from repro.hw.machine import Machine, MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.monitor.boot import measured_late_launch
from repro.monitor.enclave import ENCLAVE_BASE_VA
from tests.monitor.conftest import build_minimal_enclave

KEY = bytes(range(32))
NONCE = bytes(range(100, 116))
AAD = b"kat-aad"

AEAD = {
    0: "4d9987b486b6b4f846132caacbf3525bc79abcb91cd2e18cc4b6858c7a06212d",
    1: "fd5f1de0f6c4ccc64a64736df304b381a5a69fe3cd72703d537fd4a40e2dc867",
    31: "4ebdbf64f71a6fb04a4b46e508758e054861b9ddfdb3d0f61b94ec3156af8e30",
    32: "d7d05ac8aa080c69ad031edcd3c7d47b0f23d1ee19148718fa54ca158af81f9e",
    33: "79d5c8bdeeade4c29ba5e62f6553eee82c94f0e2482b7127e50a1382c6421664",
    4095: "defd6add50bdf226c2dd79b58a926c1dfd587ca81e1829d75ed545a6b30f45f4",
    4096: "1b6faa12d26a45d06e37980ab596cc8b6006bdf7f2ef20280e325ea2b5e5dfa8",
    4097: "2fd6b773f76615b67705dc398bedc7d323fc02c8ebc2b5279a8b7c0f3d76ac37",
    9000: "d54b67950eb178733e5520af34b862211f6af312b908f494809356fa8d26be3b",
}

# n -> (digest of Drbg(b"seed").read(n), position() afterwards)
DRBG = {
    0: ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5960a82bd28fd974db6a9399edfe8ea08fe5eb73392a1631af165897fc2f7637"),
    1: ("26e5bfe4b0686167e3e4e0aac40cbae03515171d375f91ea563c9c044e9c5cc7",
        "7769499ccc3049b45752f59365b3a2e08b47fb31185368c962b69ec05f964f53"),
    32: ("65d34298cdd8d829fc18268cf55838d945bc8d113c02b60bfb73955f1ca147ab",
         "7769499ccc3049b45752f59365b3a2e08b47fb31185368c962b69ec05f964f53"),
    33: ("a0d3094c89c5ee27bea51333f959ca0eeb76ef157bdf289988cd00fb3bcc875e",
         "5990bb543c784204ca1d12d3773f672ce09ece95b81860353aaa4a52bbab351a"),
    4096: ("1f54ee229caa7629e60ca96c65ce02953ba499903b0fe22acafc88650b76ab7a",
           "ec87f24942284b32a966927704e47364d10f8f3f9f82c09bfc387a07bd428b14"),
}

HKDF = {
    1: "7d8c5da7fd418379048e430b33dc8ffcda739e44326b8a5d647dc0ad81ed2157",
    32: "55b5b797657119daf9fc692af90117388a0de737a3806a2761e37e70a3f17593",
    33: "fab631475c69f8751546e2bfe5bb739a973ab307b87fdae1c5231df85bd44fdb",
    8160: "a4c8df320c7014bdec09e95194f4b48c86bb83db44529f443a42ace0158dfe55",
}

SWAP_RECORDS = 16
SWAP_STORE = \
    "7f7dbe39584c19a4b9975a261393968accc315886afc3f748c6f4844e0ae53bb"
SWAP_STATE_HASH = \
    "e8fec4cd8a343e2fb4e8d31d97656cfc2b0dad4ef19909f231e399b946bc88d7"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plaintext(n: int) -> bytes:
    return bytes((i * 7 + 3) & 0xFF for i in range(n))


@pytest.mark.parametrize("n", sorted(AEAD))
def test_aead_encrypt_vectors(n):
    blob = aead_encrypt(KEY, NONCE, _plaintext(n), aad=AAD)
    assert _digest(blob) == AEAD[n]
    assert aead_decrypt(KEY, blob, aad=AAD) == _plaintext(n)


@pytest.mark.parametrize("n", sorted(DRBG))
def test_drbg_vectors(n):
    drbg = Drbg(b"seed")
    assert (_digest(drbg.read(n)), drbg.position()) == DRBG[n]


@pytest.mark.parametrize("n", sorted(HKDF))
def test_hkdf_vectors(n):
    okm = hkdf(b"kat-ikm", salt=b"kat-salt", info=b"kat-info", length=n)
    assert len(okm) == n
    assert _digest(okm) == HKDF[n]


def test_swap_store_blobs_after_tiny_epc_sweep():
    """Sweep 16 pages past a 254-page EPC, then back over the first 16.

    Every eviction encrypts a page into the untrusted store; the digest
    covers each swapped page's address, version and blob.
    """
    mib = 1024 * 1024
    machine = Machine(MachineConfig(phys_size=256 * mib,
                                    reserved_base=128 * mib,
                                    reserved_size=16 * mib, sanitize=False))
    monitor = measured_late_launch(machine,
                                   monitor_private_size=15 * mib).monitor
    eid, enclave = build_minimal_enclave(monitor, machine,
                                         size=1024 * PAGE_SIZE,
                                         with_msbuf=False)
    base = ENCLAVE_BASE_VA + 64 * PAGE_SIZE
    monitor.reserve_region(eid, base, 512 * PAGE_SIZE)
    pages = monitor.epc_pool.free_pages + 16
    for i in list(range(pages)) + list(range(16)):
        va = base + i * PAGE_SIZE
        monitor.handle_enclave_page_fault(eid, va, write=True)
        machine.phys.write(enclave.translate(va, write=True),
                           _plaintext(PAGE_SIZE - i))
    state = monitor._swap_state(enclave)
    digest = hashlib.sha256()
    for va in sorted(state.records):
        record = state.records[va]
        digest.update(va.to_bytes(8, "little")
                      + record.version.to_bytes(8, "little"))
        digest.update(monitor.swap_store.get(record.token))
    assert len(state.records) == SWAP_RECORDS
    assert digest.hexdigest() == SWAP_STORE
    assert machine.state_hash() == SWAP_STATE_HASH
