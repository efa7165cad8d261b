"""The untrusted runtime (uRTS): enclave loading and edge-call dispatch.

``create_enclave`` walks the full paper flow: ioctls to
``/dev/hyper_enclave`` for ECREATE/EADD/EINIT, an ``mmap(MAP_POPULATE)``'d
and pinned marshalling buffer whose base/size go to RustMonitor at EINIT
(Sec 5.3), and a signal handler registered for two-phase exception
handling.

Edge calls are interpreted straight from the EDL ``FuncSpec``: scalars
travel in "registers", buffers through the marshalling buffer, with the
same copy discipline as the modified SGX SDK — ``[in]`` data is staged
app->msbuf->enclave, ``[out]`` data enclave->msbuf->app, and
``sgx_ocalloc`` frames for OCALLs are carved directly out of the buffer
(which is why OCALLs show no marshalling overhead in Figure 7).
"""

from __future__ import annotations

from repro.errors import SdkError, SecurityViolation
from repro.hw import costs
from repro.hw.memmodel import EpcModel, MemorySubsystem
from repro.monitor.structs import EnclaveMode, PagePerm, PageType
from repro.osim.kmod import Ioctl
from repro.sdk.edl import Direction, FuncSpec
from repro.sdk.image import EnclaveImage, compute_layout
from repro.sdk.trts import EnclaveContext

# SDK step slices (see repro.hw.costs.ECALL_SDK_STEPS), summed once.  Step
# costs are integers, so one charge of the sum is bit-identical to what
# Cpu.charge_steps charges for the slice.
_URTS_PRE = costs.steps_total(costs.ECALL_SDK_STEPS[:2])
_TRTS_PRE = costs.steps_total(costs.ECALL_SDK_STEPS[2:5])
_TRTS_POST = costs.steps_total(costs.ECALL_SDK_STEPS[5:6])
_URTS_POST = costs.steps_total(costs.ECALL_SDK_STEPS[6:])
_OCALL_TRTS_PRE = costs.steps_total(costs.OCALL_SDK_STEPS[:2])
_OCALL_URTS = costs.steps_total(costs.OCALL_SDK_STEPS[2:3])
_OCALL_TRTS_POST = costs.steps_total(costs.OCALL_SDK_STEPS[3:])


def _charge_memcpy(machine, nbytes: int) -> None:
    lines = max(1, (nbytes + costs.CACHE_LINE - 1) // costs.CACHE_LINE)
    machine.cycles.charge(
        costs.MEMCPY_FIXED_CYCLES + lines * costs.MEMCPY_CYCLES_PER_LINE,
        "memcpy")
    machine.telemetry.count("sdk", "marshalling.bytes", nbytes)


class UntrustedRuntime:
    """Per-process uRTS (libsgx_urts.so equivalent)."""

    def __init__(self, machine, kernel, device, monitor, process) -> None:
        self.machine = machine
        self.kernel = kernel
        self.device = device
        self.monitor = monitor
        self.process = process

    def create_enclave(self, image: EnclaveImage, signing_key, *,
                       use_marshalling: bool = True) -> "EnclaveHandle":
        """Load, measure, and initialize an enclave from ``image``."""
        with self.machine.telemetry.site("create_enclave",
                                         mode=image.config.mode.value,
                                         image=image.name):
            return self._do_create(image, signing_key,
                                   use_marshalling=use_marshalling)

    def _do_create(self, image: EnclaveImage, signing_key, *,
                   use_marshalling: bool) -> "EnclaveHandle":
        layout = compute_layout(image)
        sigstruct = image.sign(signing_key)

        eid = self.device.ioctl(self.process, Ioctl.ECREATE,
                                config=image.config,
                                size=layout.elrange_size)
        base = self.monitor.enclaves[eid].secs.base
        for page in layout.pages:
            if page.page_type is PageType.TCS:
                self.device.ioctl(self.process, Ioctl.ADD_TCS,
                                  enclave_id=eid, offset=page.offset,
                                  entry_va=base + layout.entry_offset)
            else:
                self.device.ioctl(self.process, Ioctl.EADD,
                                  enclave_id=eid, offset=page.offset,
                                  content=page.content,
                                  page_type=page.page_type,
                                  perms=page.perms)
        self.device.ioctl(self.process, Ioctl.RESERVE_REGION,
                          enclave_id=eid,
                          start_va=base + layout.heap_start,
                          size=layout.heap_size, perms=PagePerm.RW)

        # The marshalling buffer: mmap(MAP_POPULATE) + pin + register.
        ms_size = image.config.marshalling_buffer_size
        vma = self.kernel.mmap(self.process, ms_size, populate=True)
        self.device.ioctl(self.process, Ioctl.PIN_BUFFER, vma=vma)
        marshalling = (vma.start, ms_size, list(vma.frames))

        self.device.ioctl(self.process, Ioctl.EINIT, enclave_id=eid,
                          sigstruct=sigstruct, marshalling=marshalling)

        handle = EnclaveHandle(self, image, layout, eid, vma,
                               use_marshalling=use_marshalling)
        self.process.enclaves[eid] = handle
        return handle


class EnclaveHandle:
    """An application's view of one loaded enclave."""

    # The fixed app-side return point registered as the AEP at EENTER.
    AEP = 0x0040_0F00

    def __init__(self, urts: UntrustedRuntime, image: EnclaveImage, layout,
                 enclave_id: int, msbuf_vma, *, use_marshalling: bool) -> None:
        self.urts = urts
        self.machine = urts.machine
        self.kernel = urts.kernel
        self.monitor = urts.monitor
        self.world = urts.monitor.world
        self.process = urts.process
        self.image = image
        self.layout = layout
        self.enclave_id = enclave_id
        self.enclave = urts.monitor.enclaves[enclave_id]
        self.msbuf_vma = msbuf_vma
        self.use_marshalling = use_marshalling
        self.ocall_impls: dict[str, callable] = {}
        self.destroyed = False
        # Switchless-call state (see enable_switchless): the worker
        # cycles of finished switchless periods, and when the open one
        # began.
        self.switchless_workers = 0
        self.switchless_calls = 0
        self._worker_cycles_banked = 0.0
        self._switchless_since = 0

        mode = image.config.mode
        self.enclave_mem = MemorySubsystem(
            self.machine.cycles,
            self.machine.encryption,
            llc=self.machine.llc,
            tlb=self.machine.tlb,
            epc=EpcModel(costs.SGX_EPC_SIZE) if mode is EnclaveMode.SGX
            else None,
            nested_paging=mode in (EnclaveMode.GU, EnclaveMode.P),
            category="enclave-memory")
        self.enclave_mem.asid = enclave_id
        self.ctx = EnclaveContext(self)

        # Marshalling buffer regions: [ecall frames | ocall frames | user].
        size = msbuf_vma.size
        self._ecall_base = msbuf_vma.start
        self._ecall_limit = msbuf_vma.start + size // 2
        self._ocall_base = self._ecall_limit
        self._ocall_limit = msbuf_vma.start + 3 * size // 4
        self._user_base = self._ocall_limit
        self._user_limit = msbuf_vma.start + size
        self._ecall_cursor = self._ecall_base
        self._ocall_cursor = self._ocall_base
        self._user_cursor = self._user_base

        # Phase-1 exception handling: the uRTS registers signal handlers.
        from repro.osim.kernel import SIGILL, SIGSEGV
        self.process.register_signal_handler(SIGILL, self._on_signal)
        self.process.register_signal_handler(SIGSEGV, self._on_signal)

    # -- misc plumbing -----------------------------------------------------------

    def _on_signal(self, **info):
        # Phase one: the kernel delivered the AEX as a signal.  Phase two
        # (the internal ECALL) is driven by the tRTS in _two_phase_exception.
        return info

    def register_ocall(self, name: str, impl) -> None:
        self.image.edl.untrusted_by_name(name)   # must exist
        self.ocall_impls[name] = impl

    def app_read(self, va: int, size: int) -> bytes:
        return self.kernel.user_read(self.process, va, size)

    def app_write(self, va: int, data: bytes) -> None:
        self.kernel.user_write(self.process, va, data)

    def msbuf_user_alloc(self, size: int) -> int:
        """Allocate app-visible space *inside* the marshalling buffer for
        user_check parameters (the paper's added developer interface)."""
        size = (size + 15) & ~15
        if self._user_cursor + size > self._user_limit:
            raise SdkError("marshalling buffer user region exhausted")
        va = self._user_cursor
        self._user_cursor += size
        return va

    # -- ECALL -------------------------------------------------------------------

    def ecall(self, name: str, **kwargs):
        """Invoke a public trusted function.

        Returns the retval, or ``(retval, outs)`` when the function has
        ``[out]``/``[in,out]`` buffers.
        """
        if self.destroyed:
            raise SdkError("enclave has been destroyed")
        spec = self.image.edl.trusted_by_name(name)
        if not spec.public:
            raise SecurityViolation(
                f"ECALL to private trusted function {name!r}")
        func = self.image.trusted_funcs[name]

        with self.machine.telemetry.site("ecall", func=name,
                                         enclave=self.enclave_id):
            return self._do_ecall(spec, func, kwargs)

    def _do_ecall(self, spec: FuncSpec, func, kwargs):
        cycles = self.machine.cycles
        cycles.charge(_URTS_PRE, "sdk-ecall")
        tcs = self.enclave.acquire_tcs()
        frame_save = self._ecall_cursor
        try:
            scalars, staged = self._stage_in(spec, kwargs)
            self.world.eenter(self.enclave, tcs, self.AEP)
            self.world.charge_ecall_warmup(self.enclave)
            prev_tcs = self.ctx.current_tcs
            self.ctx.current_tcs = tcs
            try:
                cycles.charge(_TRTS_PRE, "sdk-ecall")
                args, out_bufs = self._unmarshal_trusted(spec, scalars,
                                                         staged)
                retval = func(self.ctx, **args)
                self._marshal_out_trusted(staged, out_bufs)
                cycles.charge(_TRTS_POST, "sdk-ecall")
            finally:
                self.ctx.current_tcs = prev_tcs
            self.world.eexit(self.enclave, self.AEP)
            cycles.charge(_URTS_POST, "sdk-ecall")
            outs = self._copy_out_to_app(spec, staged)
        finally:
            self._ecall_cursor = frame_save
            self.enclave.release_tcs(tcs)

        if outs:
            return retval, outs
        return retval

    def _msbuf_alloc_ecall(self, size: int) -> int:
        size = (size + 15) & ~15
        if self._ecall_cursor + size > self._ecall_limit:
            raise SdkError("marshalling buffer overflow on ECALL frame")
        va = self._ecall_cursor
        self._ecall_cursor += size
        return va

    def _stage_in(self, spec: FuncSpec, kwargs):
        """App side: validate args and stage [in] data toward the enclave.

        Returns the scalar arguments and one entry per buffer parameter.
        """
        scalars: dict[str, int] = {}
        staged: dict[str, dict] = {}
        for p in spec.plan:
            name = p.name
            if p.kind is Direction.NONE:
                if name not in kwargs:
                    raise SdkError(f"{spec.name}: missing argument "
                                   f"{name!r}")
                scalars[name] = int(kwargs[name])
                continue
            if p.kind is Direction.USER_CHECK:
                staged[name] = {"user_va": int(kwargs[name])}
                continue
            size = p.size_of(spec.name, kwargs)
            entry: dict = {"size": size}
            if p.copies_in:
                data = bytes(kwargs[name])
                if len(data) != size:
                    raise SdkError(
                        f"{spec.name}.{name}: buffer is {len(data)} "
                        f"bytes but size says {size}")
                if self.use_marshalling:
                    # Copy 1: application -> marshalling buffer.
                    va = self._msbuf_alloc_ecall(size)
                    self.app_write(va, data)
                    _charge_memcpy(self.machine, size)
                    entry["ms_va"] = va
                else:
                    entry["direct"] = data
            elif self.use_marshalling:   # [out]
                entry["ms_va"] = self._msbuf_alloc_ecall(size)
            staged[name] = entry
        return scalars, staged

    def _unmarshal_trusted(self, spec: FuncSpec, scalars, staged):
        """Enclave side: pull [in] data across, build the call arguments."""
        args: dict[str, object] = dict(scalars)
        out_bufs: dict[str, bytearray] = {}
        for p in spec.plan:
            if p.kind is Direction.NONE:
                continue
            name = p.name
            entry = staged[name]
            if p.kind is Direction.USER_CHECK:
                args[name] = entry["user_va"]
                continue
            size = entry["size"]
            if p.copies_in:
                if self.use_marshalling:
                    # Copy 2: marshalling buffer -> enclave memory.
                    data = self.ctx.read_stream(entry["ms_va"], size)
                else:
                    data = entry["direct"]
                    enclave_va = self.ctx.malloc(size)
                    self.ctx.write_stream(enclave_va, data)
                _charge_memcpy(self.machine, size)
                if p.copies_out:
                    buf = bytearray(data)
                    out_bufs[name] = buf
                    args[name] = buf
                else:
                    args[name] = data
            else:   # OUT
                buf = bytearray(size)
                out_bufs[name] = buf
                args[name] = buf
        return args, out_bufs

    def _marshal_out_trusted(self, staged, out_bufs) -> None:
        """Enclave side: push [out] data into the marshalling buffer."""
        for name, buf in out_bufs.items():
            entry = staged[name]
            data = bytes(buf)
            if self.use_marshalling:
                self.ctx.write_stream(entry["ms_va"], data)
            else:
                entry["direct_out"] = data
            _charge_memcpy(self.machine, len(data))

    def _copy_out_to_app(self, spec: FuncSpec, staged) -> dict[str, bytes]:
        """App side: read [out] results back."""
        outs: dict[str, bytes] = {}
        for p in spec.plan:
            if not p.copies_out:
                continue
            entry = staged[p.name]
            if self.use_marshalling:
                outs[p.name] = self.app_read(entry["ms_va"], entry["size"])
                _charge_memcpy(self.machine, entry["size"])
            else:
                outs[p.name] = entry.get("direct_out", b"")
        return outs

    # -- OCALL -------------------------------------------------------------------

    def enable_switchless(self, workers: int = 1) -> None:
        """Turn on switchless OCALLs (Tian et al. [66]).

        ``workers`` untrusted worker threads busy-poll a request ring in
        the marshalling buffer; OCALLs stop paying the world switch and
        instead pay ring synchronization — while the workers burn a core
        each (tracked in :attr:`switchless_worker_cycles`).
        """
        if workers < 1:
            raise SdkError("switchless mode needs at least one worker")
        self.disable_switchless()
        self.switchless_workers = workers
        self._switchless_since = self.machine.cycles.total

    def disable_switchless(self) -> None:
        self._worker_cycles_banked = self.switchless_worker_cycles
        self.switchless_workers = 0

    @property
    def switchless_worker_cycles(self) -> float:
        """The cycles the worker cores burned, polling and serving.

        A worker spins for as long as switchless mode is on, so this is
        every machine cycle elapsed while it was on, once per worker.
        The workers run on their own cores: nothing here is charged to
        the caller's cycle counter.
        """
        cycles = self._worker_cycles_banked
        if self.switchless_workers:
            cycles += self.switchless_workers * (
                self.machine.cycles.total - self._switchless_since)
        return cycles

    def dispatch_ocall(self, ctx: EnclaveContext, name: str, kwargs):
        """Called by the tRTS: leave the enclave, run the untrusted impl,
        re-enter.  sgx_ocalloc frames live directly in the marshalling
        buffer, so no extra copy happens (Sec 5.3).

        With switchless mode on, the world switch is replaced by a
        shared-ring handoff to a polling worker.
        """
        spec = self.image.edl.untrusted_by_name(name)
        impl = self.ocall_impls.get(name)
        if impl is None:
            raise SdkError(f"no OCALL implementation registered for {name!r}")
        tcs = ctx.current_tcs
        if tcs is None:
            raise SdkError("OCALL outside an ECALL")
        switchless = self.switchless_workers > 0

        with self.machine.telemetry.site("ocall", func=name,
                                         enclave=self.enclave_id,
                                         switchless=switchless):
            return self._do_ocall(ctx, spec, impl, tcs, switchless, name,
                                  kwargs)

    def _do_ocall(self, ctx: EnclaveContext, spec: FuncSpec, impl, tcs,
                  switchless: bool, name: str, kwargs):
        cycles = self.machine.cycles
        if not switchless:
            cycles.charge(_OCALL_TRTS_PRE, "sdk-ocall")
        frame_save = self._ocall_cursor
        try:
            app_args: dict[str, object] = {}
            out_entries: dict[str, tuple[int, int]] = {}
            for p in spec.plan:
                pname = p.name
                if not (p.copies_in or p.copies_out):
                    # Scalars and [user_check] pointers travel as integers.
                    app_args[pname] = int(kwargs[pname])
                    continue
                size = p.size_of(name, kwargs)
                va = self._msbuf_ocalloc(size)
                if p.copies_in:
                    # The single copy: enclave -> ocalloc'd msbuf frame.
                    ctx.write_stream(va, bytes(kwargs[pname]))
                    _charge_memcpy(self.machine, size)
                    app_args[pname] = self.app_read(va, size)
                else:
                    app_args[pname] = None
                if p.copies_out:
                    out_entries[pname] = (va, size)

            if switchless:
                # Enqueue -> worker pickup -> impl -> completion spin.
                cycles.charge(costs.SWITCHLESS_ENQUEUE_CYCLES, "switchless")
                cycles.charge(costs.SWITCHLESS_POLL_INTERVAL_CYCLES / 2,
                              "switchless")
                result = impl(**app_args)
                self.switchless_calls += 1
            else:
                self.world.eexit(self.enclave, self.AEP)
                cycles.charge(_OCALL_URTS, "sdk-ocall")
                result = impl(**app_args)
            retval, impl_outs = _split_ocall_result(result, out_entries)
            for pname, data in impl_outs.items():
                va, size = out_entries[pname]
                if len(data) > size:
                    raise SdkError(f"OCALL {name}.{pname}: output larger "
                                   f"than the declared buffer")
                self.app_write(va, data)
            if switchless:
                cycles.charge(costs.SWITCHLESS_COMPLETE_CYCLES, "switchless")
            else:
                self.world.eenter(self.enclave, tcs, self.AEP)
                self.world.charge_ocall_warmup(self.enclave)
                cycles.charge(_OCALL_TRTS_POST, "sdk-ocall")

            # The whole [out] frame comes back, as the SDK copies it.
            outs = {pname: ctx.read_stream(va, size)
                    for pname, (va, size) in out_entries.items()}
        finally:
            self._ocall_cursor = frame_save

        if outs:
            return retval, outs
        return retval

    def _msbuf_ocalloc(self, size: int) -> int:
        size = (size + 15) & ~15
        if self._ocall_cursor + size > self._ocall_limit:
            raise SdkError("marshalling buffer overflow on OCALL frame")
        va = self._ocall_cursor
        self._ocall_cursor += size
        return va

    # -- teardown -----------------------------------------------------------------

    def destroy(self) -> None:
        if not self.destroyed:
            self.disable_switchless()     # the workers exit with it
            self.urts.device.ioctl(self.process, Ioctl.EREMOVE,
                                   enclave_id=self.enclave_id)
            self.destroyed = True


def _split_ocall_result(result, out_entries):
    if isinstance(result, tuple):
        retval, outs = result
        if not outs.keys() <= out_entries.keys():
            missing = set(outs) - set(out_entries)
            raise SdkError(f"OCALL returned unknown out params {missing}")
        return retval, outs
    return result, {}
