"""Memory-mapping attacks (Figure 9, Appendix A.1).

(a) alias two enclave virtual pages onto the same physical frame, so a
    write through one corrupts data the enclave believes is isolated;
(b) map a non-enclave virtual page onto an enclave frame, so untrusted
    code reads enclave memory directly.

On SGX-like designs the *untrusted OS* maintains the enclave page table
and can attempt both (SGX needs the EPCM + PMH hardware to catch them).
On HyperEnclave the OS simply has no handle on the enclave's page table —
the attacks below therefore go through the only interfaces it has: its
own page tables (policed by the NPT) and crafted hypercall arguments.
"""

from __future__ import annotations

from repro.attacks.results import AttackResult, run_attack
from repro.hw.paging import PageTableFlags
from repro.hw.phys import PAGE_SIZE


def alias_enclave_pages(platform, handle) -> AttackResult:
    """Figure 9(a): the OS tries to alias two enclave pages.

    The only authority over enclave mappings is RustMonitor; the OS's
    best attempt is a crafted marshalling-buffer registration that names
    an enclave frame (so the enclave would get a second, writable mapping
    of its own page)."""

    def attack() -> str:
        enclave = handle.enclave
        victim_pa = enclave.pages[0].pa
        # Register a "marshalling buffer" whose frame list names the
        # enclave's own code frame.
        enclave.register_marshalling_buffer(
            0x7E00_0000_0000, PAGE_SIZE, [victim_pa])
        return "aliased an enclave frame into a second writable mapping"

    return run_attack("mapping: alias enclave page via crafted msbuf",
                      attack)


def map_enclave_frame_into_process(platform, handle) -> AttackResult:
    """Figure 9(b): the (malicious) OS maps an app page onto an enclave
    frame and reads through it."""

    def attack() -> str:
        kernel = platform.kernel
        process = platform.process
        victim_pa = handle.enclave.pages[0].pa
        vma = kernel.mmap(process, PAGE_SIZE, populate=True)
        process.pt.unmap(vma.start)
        process.pt.map(vma.start, victim_pa, PageTableFlags.URW)
        leaked = kernel.user_read(process, vma.start, 16)
        return f"read enclave memory: {leaked!r}"

    return run_attack("mapping: map enclave frame into app page table",
                      attack)


def os_remaps_marshalling_buffer(platform, handle) -> AttackResult:
    """The OS tries to swap the pinned marshalling-buffer frame for one it
    controls after EINIT (a TOCTOU on parameter passing).

    The frames are pinned — munmap/compaction refuses — so the OS cannot
    change the GPA->HPA binding the enclave got at registration."""

    def attack() -> str:
        kernel = platform.kernel
        process = platform.process
        kernel.munmap(process, handle.msbuf_vma)
        return "replaced the pinned marshalling buffer mapping"

    return run_attack("mapping: remap pinned marshalling buffer", attack)


def overlapping_marshalling_buffer(platform, image) -> AttackResult:
    """EINIT-time check: a marshalling buffer crafted to overlap ELRANGE
    (would let the app overwrite enclave memory, Sec 6)."""

    def attack() -> str:
        from repro.monitor.enclave import ENCLAVE_BASE_VA
        from repro.platform import DEFAULT_VENDOR_KEY
        from repro.sdk.image import compute_layout
        monitor = platform.monitor
        layout = compute_layout(image)
        sigstruct = image.sign(DEFAULT_VENDOR_KEY)
        eid = monitor.ecreate(image.config, size=layout.elrange_size)
        for page in layout.pages:
            if page.page_type.value == "tcs":
                monitor.add_tcs(eid, page.offset, ENCLAVE_BASE_VA)
            else:
                monitor.eadd(eid, page.offset, page.content,
                             page_type=page.page_type, perms=page.perms)
        vma = platform.kernel.mmap(platform.process, PAGE_SIZE,
                                   populate=True)
        crafted = (ENCLAVE_BASE_VA + PAGE_SIZE, PAGE_SIZE,
                   list(vma.frames))
        monitor.einit(eid, sigstruct, marshalling=crafted)
        return "registered a marshalling buffer inside ELRANGE"

    return run_attack("mapping: marshalling buffer overlapping ELRANGE",
                      attack)
