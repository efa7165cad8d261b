"""Calibrated cycle-cost constants — the single calibration point.

Every constant here is either taken directly from the HyperEnclave paper
(Sec. 4.2: hypercall ~880 cycles, syscall ~120 cycles; Table 1/2 targets)
or itemized so the mechanism steps sum to the paper's published numbers.
The world-switch engine, the SDK and the exception paths charge these
step-by-step, so the micro-benchmarks *recompute* the paper's tables from
the itemization rather than printing constants.

Layout
------
* trap-mechanism primitives (VM exit/entry, syscall/sysret),
* per-enclave-mode world-switch step lists (EENTER / EEXIT),
* SDK software-path step lists (ECALL / OCALL),
* exception-handling step lists (#UD AEX two-phase, #PF),
* memory-system parameters (LLC, DRAM, walks, memcpy),
* memory-encryption and EPC-paging parameters.

``validate()`` asserts that every itemization sums to the paper target;
the test-suite calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Trap mechanism primitives (paper Sec 4.2: hypercall ~880, syscall ~120).
# ---------------------------------------------------------------------------
VMEXIT_CYCLES = 500
VMENTRY_CYCLES = 380
HYPERCALL_ROUNDTRIP = VMEXIT_CYCLES + VMENTRY_CYCLES           # 880
SYSCALL_CYCLES = 60
SYSRET_CYCLES = 60
SYSCALL_ROUNDTRIP = SYSCALL_CYCLES + SYSRET_CYCLES             # 120

# ---------------------------------------------------------------------------
# World switches: per-mode EENTER / EEXIT step itemization.
# Sums must equal Table 1: HU 1163/1144, GU 1704/1319, P 1649/1401.
# ---------------------------------------------------------------------------
Steps = list[tuple[str, int]]


def steps_total(steps: Steps) -> int:
    """The summed cycles of an itemized step list."""
    return sum(c for _, c in steps)


@dataclass(frozen=True)
class WorldSwitchCosts:
    """Itemized entry/exit steps for one enclave operation mode."""

    eenter: Steps
    eexit: Steps

    @property
    def eenter_total(self) -> int:
        return steps_total(self.eenter)

    @property
    def eexit_total(self) -> int:
        return steps_total(self.eexit)


GU_SWITCH = WorldSwitchCosts(
    eenter=[
        ("vmexit", VMEXIT_CYCLES),              # app hypercall traps in
        ("validate_tcs", 120),
        ("save_app_vcpu", 180),
        ("load_enclave_vcpu", 180),
        ("switch_gpt_npt", 160),
        ("tlb_flush", 184),
        ("vmentry", VMENTRY_CYCLES),            # into the enclave VM
    ],
    eexit=[
        ("vmexit", VMEXIT_CYCLES),              # enclave hypercall traps in
        ("save_enclave_vcpu", 150),
        ("restore_app_vcpu", 145),
        ("tlb_flush", 144),
        ("vmentry", VMENTRY_CYCLES),            # back to the app
    ],
)
assert GU_SWITCH.eenter_total == 1704
assert GU_SWITCH.eexit_total == 1319

HU_SWITCH = WorldSwitchCosts(
    eenter=[
        ("vmexit", VMEXIT_CYCLES),              # app hypercall traps in
        ("validate_tcs", 120),
        ("save_app_vcpu", 180),
        ("load_host_context", 160),             # CR3 switch to enclave PT
        ("tlb_flush_asid", 143),
        ("sysret", SYSRET_CYCLES),              # drop to host ring-3
    ],
    eexit=[
        ("syscall", SYSCALL_CYCLES),            # enclave SYSCALLs to monitor
        ("save_enclave_context", 150),
        ("restore_app_vcpu", 160),
        ("tlb_flush_asid", 130),
        ("exit_checks", 264),
        ("vmentry", VMENTRY_CYCLES),            # back into the normal VM
    ],
)
assert HU_SWITCH.eenter_total == 1163
assert HU_SWITCH.eexit_total == 1144

P_SWITCH = WorldSwitchCosts(
    eenter=[
        ("vmexit", VMEXIT_CYCLES),
        ("validate_tcs", 120),
        ("save_app_vcpu", 180),
        ("load_enclave_privileged_state", 285),  # + GDT/IDT/CR3
        ("tlb_flush", 184),
        ("vmentry", VMENTRY_CYCLES),
    ],
    eexit=[
        ("vmexit", VMEXIT_CYCLES),
        ("save_enclave_privileged_state", 232),
        ("restore_app_vcpu", 145),
        ("tlb_flush", 144),
        ("vmentry", VMENTRY_CYCLES),
    ],
)
assert P_SWITCH.eenter_total == 1649
assert P_SWITCH.eexit_total == 1401

# Intel SGX hardware EENTER/EEXIT (baseline cost model; chosen so the SGX
# ECALL total lands on the paper's 14,432 once the SDK path is added).
SGX_SWITCH = WorldSwitchCosts(
    eenter=[
        ("eenter_ucode", 2900),                 # microcoded checks + TLB
        ("epcm_checks", 620),
        ("ssa_frame_setup", 482),
    ],
    eexit=[
        ("eexit_ucode", 2800),
        ("tlb_scrub", 660),
        ("register_scrub", 437),
    ],
)
assert SGX_SWITCH.eenter_total == 4002
assert SGX_SWITCH.eexit_total == 3897

# ---------------------------------------------------------------------------
# SDK software path (shared across modes; the paper uses the same SGX SDK
# v2.13 on all platforms).  ECALL = eenter + eexit + ECALL_SDK + mode extra.
# ---------------------------------------------------------------------------
ECALL_SDK_STEPS: Steps = [
    ("urts_lock_tcs", 820),
    ("urts_ocall_frame", 830),
    ("trts_entry_checks", 900),
    ("trts_stack_setup", 550),
    ("trts_dispatch", 380),
    ("trts_return", 1403),
    ("urts_epilogue", 1250),
]
ECALL_SDK_BASE = sum(c for _, c in ECALL_SDK_STEPS)
assert ECALL_SDK_BASE == 6133

OCALL_SDK_STEPS: Steps = [
    ("trts_ocalloc_frame", 520),
    ("trts_save_context", 380),
    ("urts_ocall_dispatch", 413),
    ("trts_resume_context", 500),
]
OCALL_SDK_BASE = sum(c for _, c in OCALL_SDK_STEPS)
assert OCALL_SDK_BASE == 1813

# Post-world-switch TLB/cache warm-up penalty per mode.  GU and P flush the
# whole TLB on a switch (the enclave runs under its own GPT/NPT) so the SDK
# path immediately after entry takes extra misses; HU only switches ASIDs.
# OCALLs run a much shorter SDK path after re-entry, so their warm-up share
# is smaller; the SGX OCALL extra also covers the AEP/ERESUME bookkeeping
# in the uRTS.
TLB_WARMUP_EXTRA = {
    "hu": 0,
    "gu": 324,
    "p": 517,
    "sgx": 400,
}
OCALL_WARMUP_EXTRA = {
    "hu": 0,
    "gu": 84,
    "p": 397,
    "sgx": 2720,
}

# Expected edge-call totals (Table 1) — derived, then asserted.
_EXPECTED_ECALL = {
    "hu": HU_SWITCH.eenter_total + HU_SWITCH.eexit_total + ECALL_SDK_BASE + TLB_WARMUP_EXTRA["hu"],
    "gu": GU_SWITCH.eenter_total + GU_SWITCH.eexit_total + ECALL_SDK_BASE + TLB_WARMUP_EXTRA["gu"],
    "p": P_SWITCH.eenter_total + P_SWITCH.eexit_total + ECALL_SDK_BASE + TLB_WARMUP_EXTRA["p"],
    "sgx": SGX_SWITCH.eenter_total + SGX_SWITCH.eexit_total + ECALL_SDK_BASE + TLB_WARMUP_EXTRA["sgx"],
}
assert _EXPECTED_ECALL == {"hu": 8440, "gu": 9480, "p": 9700, "sgx": 14432}

_EXPECTED_OCALL = {
    mode: (SWITCH.eexit_total + SWITCH.eenter_total + OCALL_SDK_BASE
           + OCALL_WARMUP_EXTRA[mode])
    for mode, SWITCH in (("hu", HU_SWITCH), ("gu", GU_SWITCH),
                         ("p", P_SWITCH), ("sgx", SGX_SWITCH))
}
assert _EXPECTED_OCALL == {"hu": 4120, "gu": 4920, "p": 5260, "sgx": 12432}

# ---------------------------------------------------------------------------
# Exceptions (Table 2).  #UD inside a user-mode enclave triggers an AEX and
# two-phase handling: AEX -> OS signal -> internal ECALL to the in-enclave
# handler -> ERESUME.  P-Enclaves deliver through their own IDT.
# ---------------------------------------------------------------------------
AEX_STEPS = {
    "gu": [
        ("vmexit", VMEXIT_CYCLES),
        ("save_and_scrub_enclave_state", 600),
        ("inject_to_primary_os", VMENTRY_CYCLES),
    ],
    "hu": [
        ("trap_to_monitor", 300),
        ("save_and_scrub_enclave_state", 600),
        ("inject_to_primary_os", VMENTRY_CYCLES),
    ],
    "p": [
        ("vmexit", VMEXIT_CYCLES),
        ("save_and_scrub_enclave_state", 700),
        ("inject_to_primary_os", VMENTRY_CYCLES),
    ],
    "sgx": [
        ("aex_ucode", 2600),
        ("ssa_save", 900),
    ],
}
OS_SIGNAL_DISPATCH = 3200        # kernel signal delivery to the uRTS handler
EXCEPTION_HANDLER_WORK = 1000    # in-enclave SSA fix-up (both platforms)
ERESUME_STEPS = {
    "gu": [
        ("vmexit", VMEXIT_CYCLES),
        ("restore_enclave_vcpu", 1266),
        ("tlb_flush", 184),
        ("vmentry", VMENTRY_CYCLES),
    ],
    "hu": [
        ("vmexit", VMEXIT_CYCLES),
        ("restore_enclave_context", 1100),
        ("tlb_flush_asid", 143),
        ("sysret", SYSRET_CYCLES),
    ],
    "p": [
        ("vmexit", VMEXIT_CYCLES),
        ("restore_enclave_privileged_state", 1500),
        ("tlb_flush", 184),
        ("vmentry", VMENTRY_CYCLES),
    ],
    "sgx": [
        ("eresume_ucode", 5400),
        ("ssa_restore", 1029),
    ],
}

# In-enclave delivery through the P-Enclave's own IDT (no world switch).
P_ENCLAVE_EXCEPTION_STEPS: Steps = [
    ("idt_delivery", 130),
    ("handler_dispatch", 68),
    ("iret", 60),
]
assert sum(c for _, c in P_ENCLAVE_EXCEPTION_STEPS) == 258

# Two-phase #UD totals (Table 2: GU 17,490; SGX 28,561; P 258).
_aex = lambda m: sum(c for _, c in AEX_STEPS[m])
_eres = lambda m: sum(c for _, c in ERESUME_STEPS[m])
assert (_aex("gu") + OS_SIGNAL_DISPATCH + _EXPECTED_ECALL["gu"]
        + EXCEPTION_HANDLER_WORK + _eres("gu")) == 17490
assert (_aex("sgx") + OS_SIGNAL_DISPATCH + _EXPECTED_ECALL["sgx"]
        + EXCEPTION_HANDLER_WORK + _eres("sgx")) == 28561

# #PF handling for the GC scenario (Table 2: GU 2,660; P 1,132).
# GU: fault traps to RustMonitor, which resumes the in-enclave handler; the
# handler must hypercall back to change the page permission.
GU_PF_STEPS: Steps = [
    ("vmexit", VMEXIT_CYCLES),
    ("monitor_pf_decode", 300),
    ("vmentry_resume_handler", VMENTRY_CYCLES),
    ("enclave_handler_work", 100),
    ("mprotect_hypercall", HYPERCALL_ROUNDTRIP),
    ("monitor_pte_update_invlpg", 300),
    ("resume", 200),
]
assert sum(c for _, c in GU_PF_STEPS) == 2660

# P: the fault is delivered through the enclave's own IDT and the handler
# edits its own level-1 page table.
P_PF_STEPS: Steps = [
    ("idt_delivery", 258),
    ("own_pt_walk_update", 474),
    ("invlpg", 200),
    ("iret_resume", 200),
]
assert sum(c for _, c in P_PF_STEPS) == 1132

# Demand-paging #PF (EDMM / swap-in): RustMonitor picks a free page from the
# pool and inserts a mapping (Sec 3.2).  Not a paper table; itemized.
DEMAND_PAGING_PF_STEPS: Steps = [
    ("vmexit", VMEXIT_CYCLES),
    ("pool_alloc", 150),
    ("pte_insert", 300),
    ("vmentry", VMENTRY_CYCLES),
]

# SGX2 EDMM baseline: "the enclaves need to send the EDMM request to the
# SGX driver through OCALLs ... the changes need to be explicitly checked
# and accepted by the enclaves to take effect, which involves heavy
# enclave mode switches" (Sec 3.2).  A dynamically added page costs an
# AEX + driver EAUG + ERESUME + in-enclave EACCEPT.
SGX2_EDMM_DRIVER_CYCLES = 3_000      # driver ioctl + EAUG/EMODPR ucode
SGX2_EACCEPT_CYCLES = 1_500          # EACCEPT/EACCEPTCOPY in the enclave

# ---------------------------------------------------------------------------
# Memory system.
# ---------------------------------------------------------------------------
CACHE_LINE = 64
LLC_SIZE = 8 * 1024 * 1024           # paper: LLC is 8 MB
LLC_HIT_CYCLES = 15                  # random hit in L2/LLC
DRAM_CYCLES = 365                    # random DRAM access (incl. row activate)
SEQ_STREAM_CYCLES = 6                # prefetched sequential per-8B access
PAGE_WALK_GUEST_CYCLES = 120         # 1-level (4-step) walk, cached PTEs
PAGE_WALK_NESTED_CYCLES = 180        # 2-D (up to 24-step) walk, cached PTEs

# memcpy: streaming copies move ~20 B/cycle; a call costs a fixed overhead.
MEMCPY_FIXED_CYCLES = 60
MEMCPY_CYCLES_PER_LINE = 3.2

# Compute model: one "abstract op" (compare, add, hash step...) in workload
# kernels charges this many cycles.
OP_CYCLES = 1.0

# ---------------------------------------------------------------------------
# Memory encryption engines (see repro.hw.memenc) and SGX EPC paging.
# Calibrated so the Figure 11 ratio bands reproduce: beyond the LLC the
# normalized latency reaches ~2.4x/25x (HyperEnclave seq/random) and
# ~3x/30x (SGX), and beyond the EPC ~45x/1000x on SGX.
# ---------------------------------------------------------------------------
SME_MISS_EXTRA_CYCLES = 22           # pipelined AES-XTS per missed line
SME_STREAM_MISS_EXTRA_CYCLES = 12    # XTS on a prefetched stream (hidden)
SME_WRITEBACK_EXTRA_CYCLES = 12      # XTS re-encrypt on dirty eviction
MEE_MISS_EXTRA_CYCLES = 200          # AES-CTR decrypt + MAC check per miss
MEE_STREAM_MISS_EXTRA_CYCLES = 40    # pipelined decrypt on a stream
MEE_WRITEBACK_EXTRA_CYCLES = 320     # re-MAC + counter bump + tree update
MEE_METADATA_PROBE_CYCLES = 30       # counter-tree cache probe
MEE_METADATA_MISS_CYCLES = 220       # counter-tree line fetch + verify
MEE_TREE_ARITY_SHIFT = 6             # one counter line covers 64 data lines
MEE_TREE_LEVELS = 2                  # levels that can realistically miss
MEE_METADATA_CACHE_LINES = 4096

SGX_EPC_SIZE = 93 * 1024 * 1024      # paper: ~93 MB usable EPC
SGX_EPC_FAULT_CYCLES = 40_000       # EWB + ELDU + driver, cold fault
# Under sustained thrashing the SGX driver batches evictions (EWB of many
# pages per ioctl), so the marginal per-fault cost drops.
SGX_EPC_FAULT_BATCHED_CYCLES = 26_000
# First touch of a page while the EPC still has room: just an EAUG +
# zeroing, no eviction traffic.
SGX_EPC_POPULATE_CYCLES = 2_400
HYPERENCLAVE_EPC_SIZE = 24 * 1024 * 1024 * 1024  # 24 GB reserved (paper)

# TLB geometry.
TLB_ENTRIES = 1536

# TLB shootdown: changing a mapping that other CPUs may have cached
# requires an IPI to each of them plus a wait for acknowledgements.
IPI_BASE_CYCLES = 1_200            # send + local wait setup
IPI_PER_CPU_CYCLES = 450           # per remote CPU ack latency (pipelined)

# ---------------------------------------------------------------------------
# Switchless calls (Tian et al. [66], "Switchless Calls Made Practical in
# Intel SGX" — cited by the paper as a context-switch optimization): a
# busy-polling untrusted worker serves OCALL requests from a shared ring
# in the marshalling buffer, trading a burned core for the world switch.
# Costs: enqueue + worker pickup (half the poll interval on average) +
# completion spin.
# ---------------------------------------------------------------------------
SWITCHLESS_ENQUEUE_CYCLES = 180        # request descriptor + fence
SWITCHLESS_POLL_INTERVAL_CYCLES = 400  # worker poll-loop period
SWITCHLESS_COMPLETE_CYCLES = 240       # result pickup + spin exit

# ---------------------------------------------------------------------------
# Validation — the test-suite calls this.
# ---------------------------------------------------------------------------
EXPECTED_TABLE1 = {
    # mode: (EENTER, EEXIT, ECALL, OCALL)
    "hu": (1163, 1144, 8440, 4120),
    "gu": (1704, 1319, 9480, 4920),
    "p": (1649, 1401, 9700, 5260),
    "sgx": (None, None, 14432, 12432),
}
EXPECTED_TABLE2 = {
    # mode: (#UD, #PF)
    "sgx": (28561, None),
    "gu": (17490, 2660),
    "p": (258, 1132),
}

SWITCH_COSTS = {"gu": GU_SWITCH, "hu": HU_SWITCH, "p": P_SWITCH,
                "sgx": SGX_SWITCH}


def ecall_expected(mode: str) -> int:
    """Table-1 ECALL total implied by the itemization for ``mode``."""
    return _EXPECTED_ECALL[mode]


def ocall_expected(mode: str) -> int:
    """Table-1 OCALL total implied by the itemization for ``mode``."""
    return _EXPECTED_OCALL[mode]


def ud_exception_expected(mode: str) -> int:
    """Table-2 #UD total implied by the itemization for ``mode``."""
    if mode == "p":
        return sum(c for _, c in P_ENCLAVE_EXCEPTION_STEPS)
    return (_aex(mode) + OS_SIGNAL_DISPATCH + _EXPECTED_ECALL[mode]
            + EXCEPTION_HANDLER_WORK + _eres(mode))


def pf_gc_expected(mode: str) -> int:
    """Table-2 GC #PF total implied by the itemization for ``mode``."""
    steps = {"gu": GU_PF_STEPS, "p": P_PF_STEPS}[mode]
    return sum(c for _, c in steps)


def validate() -> None:
    """Assert every itemization sums to its paper target."""
    for mode, (eenter, eexit, ecall, ocall) in EXPECTED_TABLE1.items():
        if eenter is not None:
            assert SWITCH_COSTS[mode].eenter_total == eenter, mode
            assert SWITCH_COSTS[mode].eexit_total == eexit, mode
        assert ecall_expected(mode) == ecall, mode
        assert ocall_expected(mode) == ocall, mode
    assert ud_exception_expected("gu") == 17490
    assert ud_exception_expected("sgx") == 28561
    assert ud_exception_expected("p") == 258
    assert pf_gc_expected("gu") == 2660
    assert pf_gc_expected("p") == 1132
