"""Static predecode columns for the array core.

The object core re-derives instruction classification through ``Opcode``
enum properties on every touch; profiling shows those
``DynamicClassAttribute`` lookups dominate its cycle loop.  The array
core instead predecodes each :class:`~repro.isa.program.Program` once
into a :class:`CoreImage`: parallel columns indexed by text-segment
index holding flag bitmasks, operand register numbers, latencies,
functional-unit codes and per-instruction evaluation closures.  The hot
loop then runs on integer loads and direct calls only.

Images are immutable and cached per program object (weakly, so a
discarded program frees its image): every :class:`FastPipeline` over the
same program -- an IQ sweep, a fuzz campaign -- shares one predecode.
"""

from __future__ import annotations

import weakref
from struct import pack_into, unpack_from

from repro.arch.functional_units import NON_PIPELINED_OPS
from repro.arch.stats import REUSE_BUCKET_INDEX
from repro.isa.memory import _PAGE_SHIFT, _PAGE_SIZE
from repro.isa.opcodes import FuClass, InstrClass, Opcode
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.semantics import (
    _FP_CMP,
    _FP_MEM_OPS,
    _FP_R2,
    _FP_R3,
    _INT_MEM_SPECS,
    _INT_R2I,
    _INT_R3,
    _INT_SHIFT,
    access_size,
    load_from_memory,
    sign_extend_16,
    store_to_memory,
    to_s32,
    zero_extend_16,
)

_PAGE_MASK = _PAGE_SIZE - 1

# struct formats reproducing semantics._extend for each (size, signed)
_INT_LD_FMTS = {(4, True): "<i", (4, False): "<I", (2, True): "<h",
                (2, False): "<H", (1, True): "<b", (1, False): "<B"}
_INT_ST_FMTS = {4: "<I", 2: "<H", 1: "<B"}

# Classification flag bits (column ``flags``).
F_CONTROL = 1 << 0
F_COND = 1 << 1          # conditional direct branch
F_MEM = 1 << 2
F_LOAD = 1 << 3
F_STORE = 1 << 4
F_CALL = 1 << 5          # direct or indirect call
F_RETURN = 1 << 6        # jr $ra
F_HALT = 1 << 7
F_NOPHALT = 1 << 8       # NOP or HALT (single-cycle, no result)
#: Loop-cache fill trigger: direct, non-call control with a backward
#: static target (the fetch unit's sbb condition).
F_LC_TRIGGER = 1 << 9
#: Statically loop-ending: BRANCH/JUMP with a backward target.  Combined
#: with a taken prediction this is ``LoopDetector.is_loop_ending``.
F_BACKWARD = 1 << 10

# Control-kind codes (column ``ctrl``): -1 for non-control instructions.
CTRL_BRANCH = 0
CTRL_JUMP = 1
CTRL_CALL = 2
CTRL_IJUMP = 3
CTRL_ICALL = 4

# Functional-unit codes (column ``fu``); index into the pool's unit
# lists.  4 means "no functional unit required".
FU_IALU = 0
FU_IMULT = 1
FU_FPALU = 2
FU_FPMULT = 3
FU_NONE = 4

_FU_CODES = {
    FuClass.IALU: FU_IALU,
    FuClass.IMULT: FU_IMULT,
    FuClass.FPALU: FU_FPALU,
    FuClass.FPMULT: FU_FPMULT,
    FuClass.NONE: FU_NONE,
}

_CTRL_CODES = {
    InstrClass.BRANCH: CTRL_BRANCH,
    InstrClass.JUMP: CTRL_JUMP,
    InstrClass.CALL: CTRL_CALL,
    InstrClass.IJUMP: CTRL_IJUMP,
    InstrClass.ICALL: CTRL_ICALL,
}

# Fused ALU kernels.  Each is one call frame: the wrapper lambdas and
# the to_s32 / to_u32 / sign_extend_16 helper calls of the semantics
# kernels are folded into inline mask-and-signfix arithmetic.  The
# masking identities used: ``to_u32(x) == x & _M32`` for any int;
# bitwise AND/OR/XOR commute with masking; ``to_s32`` of a value already
# in signed 32-bit range is the identity (so SRA/SRAV need no fixup and
# ANDI's non-negative result needs none either).
_M32 = 0xFFFFFFFF


def _fx_addu(a, b):
    v = (a + b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_subu(a, b):
    v = (a - b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_mult(a, b):
    v = (a * b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_and(a, b):
    v = (a & b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_or(a, b):
    v = (a | b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_xor(a, b):
    v = (a ^ b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_nor(a, b):
    v = ~(a | b) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_sllv(a, b):
    v = ((a & 0xFFFFFFFF) << (b & 31)) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_srlv(a, b):
    v = (a & 0xFFFFFFFF) >> (b & 31)
    return v - 0x100000000 if v >= 0x80000000 else v


def _fx_ftoi(a, b):
    if a != a:  # NaN
        return 0
    v = int(a) & 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


_FUSED_R3 = {
    Opcode.ADDU: _fx_addu,
    Opcode.SUBU: _fx_subu,
    Opcode.MULT: _fx_mult,
    Opcode.AND: _fx_and,
    Opcode.OR: _fx_or,
    Opcode.XOR: _fx_xor,
    Opcode.NOR: _fx_nor,
    Opcode.SLLV: _fx_sllv,
    Opcode.SRLV: _fx_srlv,
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLTU: lambda a, b: 1 if (a & _M32) < (b & _M32) else 0,
    Opcode.SRAV: lambda a, b: a >> (b & 31),
}

_FUSED_FP = {
    Opcode.MOV_D: lambda a, b: a,
    Opcode.NEG_D: lambda a, b: -a,
    Opcode.ABS_D: lambda a, b: abs(a),
    Opcode.ITOF: lambda a, b: float(a),
    Opcode.FTOI: _fx_ftoi,
    Opcode.SLT_D: lambda a, b: 1 if a < b else 0,
    Opcode.SLE_D: lambda a, b: 1 if a <= b else 0,
    Opcode.SEQ_D: lambda a, b: 1 if a == b else 0,
}


def _fused_imm_closure(op, imm):
    """A one-frame kernel for a register-immediate ALU instruction."""
    if op is Opcode.ADDIU:
        se = sign_extend_16(imm)

        def fx(a, b, _i=se):
            v = (a + _i) & 0xFFFFFFFF
            return v - 0x100000000 if v >= 0x80000000 else v
        return fx
    if op is Opcode.ANDI:
        # zero-extended mask, result always in [0, 0xFFFF]
        ze = zero_extend_16(imm)
        return lambda a, b, _i=ze: a & _i
    if op is Opcode.ORI or op is Opcode.XORI:
        ze = zero_extend_16(imm)
        if op is Opcode.ORI:
            def fx(a, b, _i=ze):
                v = (a | _i) & 0xFFFFFFFF
                return v - 0x100000000 if v >= 0x80000000 else v
        else:
            def fx(a, b, _i=ze):
                v = (a ^ _i) & 0xFFFFFFFF
                return v - 0x100000000 if v >= 0x80000000 else v
        return fx
    if op is Opcode.SLTI:
        se = sign_extend_16(imm)
        return lambda a, b, _i=se: 1 if a < _i else 0
    if op is Opcode.SLTIU:
        ue = sign_extend_16(imm) & _M32
        return lambda a, b, _i=ue: 1 if (a & _M32) < _i else 0
    if op is Opcode.SLL:
        sh = imm & 31

        def fx(a, b, _s=sh):
            v = ((a & 0xFFFFFFFF) << _s) & 0xFFFFFFFF
            return v - 0x100000000 if v >= 0x80000000 else v
        return fx
    if op is Opcode.SRL:
        sh = imm & 31

        def fx(a, b, _s=sh):
            v = (a & 0xFFFFFFFF) >> _s
            return v - 0x100000000 if v >= 0x80000000 else v
        return fx
    if op is Opcode.SRA:
        sh = imm & 31
        return lambda a, b, _s=sh: a >> _s
    return None


# Mirrors semantics.branch_taken, one closure per opcode so the execute
# stage skips the if-chain.
_BRANCH_FNS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLEZ: lambda a, b: a <= 0,
    Opcode.BGTZ: lambda a, b: a > 0,
    Opcode.BLTZ: lambda a, b: a < 0,
    Opcode.BGEZ: lambda a, b: a >= 0,
}


def _exec_closure(op, imm):
    """A uniform ``(a, b) -> value`` kernel for one ALU/FP instruction.

    Binds the immediate (and the kernel) at predecode so the execute
    stage makes exactly one call per instruction.  Common ALU opcodes
    use the fused one-frame kernels above (bit-identical to the
    :mod:`repro.isa.semantics` kernels they replace); anything without a
    fused form falls through to the semantics tables so new opcodes
    work unmodified.  Memory, control, NOP and HALT instructions return
    None -- they are handled by dedicated paths.
    """
    fn = _FUSED_R3.get(op)
    if fn is not None:
        return fn
    fn = _fused_imm_closure(op, imm)
    if fn is not None:
        return fn
    if op is Opcode.LUI:
        const = to_s32(zero_extend_16(imm) << 16)
        return lambda a, b, _c=const: _c
    fn = _FP_R3.get(op)
    if fn is not None:
        return fn
    fn = _FUSED_FP.get(op)
    if fn is not None:
        return fn
    fn = _INT_R3.get(op)
    if fn is not None:
        return fn
    fn = _INT_R2I.get(op)
    if fn is not None:
        return lambda a, b, _fn=fn, _imm=imm: _fn(a, _imm)
    fn = _INT_SHIFT.get(op)
    if fn is not None:
        return lambda a, b, _fn=fn, _imm=imm: _fn(a, _imm)
    fn = _FP_R2.get(op)
    if fn is not None:
        return lambda a, b, _fn=fn: _fn(a)
    fn = _FP_CMP.get(op)
    if fn is not None:
        return fn
    return None


def _load_closure(op):
    """A ``(mem, pages, addr) -> value`` kernel for one load opcode.

    The fast path reads straight out of the :class:`SparseMemory` page
    (``struct.unpack_from``, no byte copies) when the access stays inside
    one page; page-crossing accesses fall back to
    :func:`repro.isa.semantics.load_from_memory`.  Unmapped pages read as
    zero, exactly like ``read_bytes``.
    """
    if op in _FP_MEM_OPS:
        def ld(mem, pages, addr, _uf=unpack_from, _op=op):
            if addr & _PAGE_MASK <= _PAGE_SIZE - 8:
                page = pages.get(addr >> _PAGE_SHIFT)
                if page is None:
                    return 0.0
                return _uf("<d", page, addr & _PAGE_MASK)[0]
            return load_from_memory(mem, _op, addr)
        return ld
    size, signed = _INT_MEM_SPECS[op]
    fmt = _INT_LD_FMTS[(size, signed)]
    limit = _PAGE_SIZE - size

    def ld(mem, pages, addr, _uf=unpack_from, _fmt=fmt, _op=op, _lim=limit):
        if addr & _PAGE_MASK <= _lim:
            page = pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                return 0
            return _uf(_fmt, page, addr & _PAGE_MASK)[0]
        return load_from_memory(mem, _op, addr)
    return ld


def _store_closure(op):
    """A ``(mem, pages, addr, value) -> None`` kernel for one store opcode.

    Writes in place into the backing page (``struct.pack_into``),
    allocating the page like ``_page_for_write`` does; page-crossing
    accesses fall back to :func:`repro.isa.semantics.store_to_memory`.
    """
    if op in _FP_MEM_OPS:
        def st(mem, pages, addr, value, _pf=pack_into, _op=op):
            if addr & _PAGE_MASK <= _PAGE_SIZE - 8:
                pa = addr >> _PAGE_SHIFT
                page = pages.get(pa)
                if page is None:
                    page = bytearray(_PAGE_SIZE)
                    pages[pa] = page
                _pf("<d", page, addr & _PAGE_MASK, float(value))
                return
            store_to_memory(mem, _op, addr, value)
        return st
    size, _ = _INT_MEM_SPECS[op]
    fmt = _INT_ST_FMTS[size]
    mask = (1 << (size * 8)) - 1
    limit = _PAGE_SIZE - size

    def st(mem, pages, addr, value, _pf=pack_into, _fmt=fmt, _op=op,
           _mask=mask, _lim=limit):
        if addr & _PAGE_MASK <= _lim:
            pa = addr >> _PAGE_SHIFT
            page = pages.get(pa)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                pages[pa] = page
            _pf(_fmt, page, addr & _PAGE_MASK, int(value) & _mask)
            return
        store_to_memory(mem, _op, addr, value)
    return st


class CoreImage:
    """One program predecoded into flat parallel columns."""

    __slots__ = (
        "program", "text_base", "text_size", "count",
        "insts", "ops", "flags", "ctrl", "fu", "lat", "busy",
        "dest", "src0", "src1", "nsrc", "ea_imm", "target",
        "memsize", "exec_fn", "br_fn", "ld_fn", "st_fn",
        "pcs", "bucket",
    )

    def __init__(self, program: Program):
        self.program = program
        self.text_base = program.text_base
        insts = list(program.instructions)
        n = len(insts)
        self.count = n
        self.text_size = n * INSTRUCTION_BYTES
        self.insts = insts                      # for predictor + disasm
        self.ops = [inst.op for inst in insts]  # for memory semantics
        flags = [0] * n
        ctrl = [-1] * n
        fu = [FU_NONE] * n
        lat = [1] * n
        busy = [1] * n          # cycles the issuing unit stays occupied
        dest = [-1] * n
        src0 = [-1] * n
        src1 = [-1] * n
        nsrc = [0] * n
        ea_imm = [0] * n
        target = [-1] * n
        memsize = [0] * n
        pcs = [0] * n
        bucket = [0] * n        # REUSE_TYPE_BUCKETS index per slot
        exec_fn = [None] * n
        br_fn = [None] * n
        ld_fn = [None] * n
        st_fn = [None] * n
        for i, inst in enumerate(insts):
            op = inst.op
            icls = op.icls
            f = 0
            if inst.is_control:
                f |= F_CONTROL
                ctrl[i] = _CTRL_CODES[icls]
            if inst.is_conditional_branch:
                f |= F_COND
                br_fn[i] = _BRANCH_FNS[op]
            if inst.is_mem:
                f |= F_MEM
                memsize[i] = access_size(op)
            if inst.is_load:
                f |= F_LOAD
                ld_fn[i] = _load_closure(op)
            if inst.is_store:
                f |= F_STORE
                st_fn[i] = _store_closure(op)
            if inst.is_call:
                f |= F_CALL
            if inst.is_return:
                f |= F_RETURN
            if inst.is_halt:
                f |= F_HALT
            if icls is InstrClass.NOP or icls is InstrClass.HALT:
                f |= F_NOPHALT
            if (inst.is_direct_control and not inst.is_call
                    and inst.target is not None and inst.target <= inst.pc):
                f |= F_LC_TRIGGER
            if (icls in (InstrClass.BRANCH, InstrClass.JUMP)
                    and inst.target is not None and inst.target <= inst.pc):
                f |= F_BACKWARD
            fu[i] = _FU_CODES[op.fu]
            lat[i] = op.latency
            busy[i] = op.latency if op in NON_PIPELINED_OPS else 1
            if inst.dest is not None:
                dest[i] = inst.dest
            srcs = inst.srcs
            nsrc[i] = len(srcs)
            if srcs:
                src0[i] = srcs[0]
                if len(srcs) > 1:
                    src1[i] = srcs[1]
            ea_imm[i] = sign_extend_16(inst.imm)
            if inst.target is not None:
                target[i] = inst.target
            pcs[i] = inst.pc
            bucket[i] = REUSE_BUCKET_INDEX[icls]
            flags[i] = f
            if not (f & (F_CONTROL | F_MEM | F_NOPHALT)):
                exec_fn[i] = _exec_closure(op, inst.imm)
        self.flags = flags
        self.ctrl = ctrl
        self.fu = fu
        self.lat = lat
        self.busy = busy
        self.dest = dest
        self.src0 = src0
        self.src1 = src1
        self.nsrc = nsrc
        self.ea_imm = ea_imm
        self.target = target
        self.memsize = memsize
        self.exec_fn = exec_fn
        self.br_fn = br_fn
        self.ld_fn = ld_fn
        self.st_fn = st_fn
        self.pcs = pcs
        self.bucket = bucket


_IMAGES: "weakref.WeakKeyDictionary[Program, CoreImage]" = \
    weakref.WeakKeyDictionary()


def image_for(program: Program) -> CoreImage:
    """The (cached) predecoded image of one program."""
    image = _IMAGES.get(program)
    if image is None:
        image = CoreImage(program)
        _IMAGES[program] = image
    return image
