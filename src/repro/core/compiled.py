"""Compiled C FusedMM kernels (the code generator of Section IV.B).

The paper generates one fused, allocation-free, vectorised C loop per
operator pattern and compiles it for the target machine.  This module does
the same with the system C compiler and the standard library only:

1. **Emit.**  :func:`generate_kernel_source` writes C source from the
   pattern's resolved five-operator description — the opcode tables the
   jit backend uses (:data:`repro.core.jit._VOP_CODES` …, plus the SCAL
   alpha as a call argument).  The Table III patterns (sigmoid embedding,
   FR layout, SpMM/GCN) get hand-fused loop bodies; every other pattern
   made only of registry operators gets the generic opcode body with its
   opcodes baked in as constants, so the compiler drops the dead branches.
   Patterns holding user Python callables are not supported.
2. **Compile.**  ``$CC`` (or ``cc`` on ``PATH``) builds a shared object
   with the fixed flags :data:`CFLAGS` — no fast-math, no
   ``-march=native``, and ``-ffp-contract=off`` so no multiply-add is
   fused behind the source's back.
3. **Cache.**  The ``.so`` is keyed by the sha256 of source, flags and
   compiler path and kept in a private per-user directory
   (:func:`cache_dir`).  A new object is compiled to a temp file and
   ``os.replace``-d into place, so concurrent processes never load a
   partial file; a cache hit spawns no subprocess, and loaded libraries
   are memoised in-process.
4. **Call.**  Kernels are called through :mod:`ctypes` with explicit
   ``argtypes``.  ``ctypes.CDLL`` releases the GIL for the duration of
   the call, so the runtime's shared thread pool runs partitions in
   parallel without processes.

Numerics
--------
Every output row is one sequential pass over its own edges.  Dot products
run in 8 fixed lanes of the feature type (float32 for float32 operands),
combined pairwise in a fixed order into a double; the row accumulates in
double and is cast once into the output.  The sigmoid is the C twin of
:func:`repro.core.mathops.sigmoid_scalar` (same clamp, same branches, NaN
propagates).  Under ``reorder="none"`` results are therefore bitwise
identical across thread counts, shards, packed batches and ``out=`` slabs
of either dtype, and allclose to the ``generic`` oracle.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from string import Template
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import BackendError, CodegenError, PartitionError
from .jit import (
    _is_edge_scaled_spmm,
    _is_tdist_fr,
    _pattern_codes,
    jit_supports_pattern,
)
from .mathops import SIGMOID_CLAMP
from .optimized import _window_parts
from .parallel import ParallelConfig, run_partitioned
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import resolve_out_window, validate_optional_x

__all__ = [
    "CFLAGS",
    "find_compiler",
    "compiler_description",
    "compiled_available",
    "compiled_supports_pattern",
    "generate_kernel_source",
    "get_compiled_kernel",
    "cache_dir",
    "clear_kernel_cache",
    "kernel_cache_info",
]

#: Fixed compiler flags: optimised, position-independent shared object,
#: no contraction of multiply-adds (so the arithmetic is the source's).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


# ---------------------------------------------------------------------- #
# Compiler discovery and the on-disk cache
# ---------------------------------------------------------------------- #
def find_compiler() -> Optional[Tuple[str, ...]]:
    """The compiler command: ``$CC`` when set, else ``cc`` on ``PATH``.

    Returns the argv prefix with the executable resolved to a path, or
    ``None`` when no compiler is found (a ``$CC`` that does not resolve
    disables the tier; it does not fall back to ``cc``).
    """
    return _resolve_compiler(os.environ.get("CC") or "cc", os.environ.get("PATH"))


@functools.lru_cache(maxsize=16)
def _resolve_compiler(cc: str, path: Optional[str]) -> Optional[Tuple[str, ...]]:
    argv = shlex.split(cc)
    exe = shutil.which(argv[0], path=path) if argv else None
    return None if exe is None else (exe, *argv[1:])


def compiler_description() -> Optional[Dict[str, str]]:
    """``{"path", "version"}`` of the compiler, or ``None`` without one.

    Runs ``<cc> --version`` once per compiler (benchmark records use this;
    the kernel path never does).
    """
    cc = find_compiler()
    return None if cc is None else dict(_describe_compiler(cc))


@functools.lru_cache(maxsize=4)
def _describe_compiler(cc: Tuple[str, ...]) -> Dict[str, str]:
    try:
        proc = subprocess.run(
            [*cc, "--version"], capture_output=True, text=True, timeout=30
        )
        lines = proc.stdout.strip().splitlines()
        version = lines[0] if lines else "unknown"
    except (OSError, subprocess.SubprocessError):
        version = "unknown"
    return {"path": " ".join(cc), "version": version}


def compiled_available() -> bool:
    """Whether a C compiler was found (``auto`` only then tries the tier)."""
    return find_compiler() is not None


def _uid() -> int:
    return os.getuid() if hasattr(os, "getuid") else 0


def _private_dir(path: str) -> bool:
    """Create ``path`` as a 0700 directory owned by this user, or report
    that it cannot be one (a symlink, someone else's, not writable)."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
        if not stat.S_ISDIR(st.st_mode) or st.st_uid != _uid():
            return False
        if st.st_mode & 0o077:
            os.chmod(path, 0o700)
        return os.access(path, os.W_OK | os.X_OK)
    except OSError:
        return False


def cache_dir() -> str:
    """The private directory compiled kernels are cached in.

    ``$XDG_CACHE_HOME/repro-fusedmm`` (``~/.cache/repro-fusedmm`` when the
    variable is unset), else a per-user directory under the system temp
    dir, else a fresh private temp dir for this process.
    """
    return _cache_dir(os.environ.get("XDG_CACHE_HOME"), os.path.expanduser("~"))


@functools.lru_cache(maxsize=4)
def _cache_dir(xdg: Optional[str], home: str) -> str:
    base = xdg if xdg and os.path.isabs(xdg) else os.path.join(home, ".cache")
    for path in (
        os.path.join(base, "repro-fusedmm"),
        os.path.join(tempfile.gettempdir(), f"repro-fusedmm-{_uid()}"),
    ):
        if _private_dir(path):
            return path
    return tempfile.mkdtemp(prefix="repro-fusedmm-")


_LOCK = threading.Lock()
#: source digest → loaded library (or the compile error to re-raise)
_LIBRARIES: Dict[str, object] = {}
#: pattern identity → kernel callable
_KERNELS: Dict[Tuple, Callable] = {}


def _compile(cc: Tuple[str, ...], source: str, target: str) -> None:
    """Compile ``source`` to ``target``: build in a private temp dir next to
    it, then ``os.replace`` — a reader sees no file or a complete one."""
    try:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(target)) as work:
            c_path = os.path.join(work, "kernel.c")
            so_path = os.path.join(work, "kernel.so")
            with open(c_path, "w") as fh:
                fh.write(source)
            proc = subprocess.run(
                [*cc, *CFLAGS, "-o", so_path, c_path, "-lm"],
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                raise CodegenError(
                    f"{cc[0]} failed (exit {proc.returncode}):\n{proc.stderr.strip()}"
                )
            os.replace(so_path, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise CodegenError(f"cannot run the C compiler {cc[0]!r}: {exc}") from exc


def _load_library(source: str) -> ctypes.CDLL:
    """The loaded shared object for ``source``: memoised in-process, then
    looked up in the disk cache, compiled only on a miss."""
    cc = find_compiler()
    if cc is None:
        raise BackendError(
            "no C compiler found ($CC or cc on PATH); "
            "use backend='auto' to fall through to the next tier"
        )
    digest = hashlib.sha256(
        "\0".join((source, " ".join(CFLAGS), " ".join(cc))).encode()
    ).hexdigest()
    with _LOCK:
        lib = _LIBRARIES.get(digest)
        if lib is None:
            try:
                path = os.path.join(cache_dir(), f"fusedmm-{digest[:32]}.so")
                if not os.path.exists(path):
                    _compile(cc, source, path)
                lib = ctypes.CDLL(path)
            except CodegenError as exc:
                lib = exc
            except OSError as exc:
                lib = CodegenError(f"cannot load the compiled kernel: {exc}")
            _LIBRARIES[digest] = lib
    if isinstance(lib, CodegenError):
        raise lib
    return lib


def clear_kernel_cache() -> None:
    """Forget the in-process kernels and libraries (the disk cache stays)."""
    with _LOCK:
        _KERNELS.clear()
        _LIBRARIES.clear()


def kernel_cache_info() -> Dict[str, int]:
    """Number of kernels and shared objects held in this process."""
    return {"cached_kernels": len(_KERNELS), "loaded_libraries": len(_LIBRARIES)}


# ---------------------------------------------------------------------- #
# Source emission
# ---------------------------------------------------------------------- #
_C_TYPES = {"f": "float", "d": "double"}

_PREAMBLE = Template(
    r"""/* FusedMM kernel: VOP=${vop} ROP=${rop} SOP=${sop} MOP=${mop} AOP=${aop}
 * (body: ${body}) */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define FMM_VOP ${vop_code}
#define FMM_ROP ${rop_code}
#define FMM_SOP ${sop_code}
#define FMM_MOP ${mop_code}
#define FMM_AOP ${aop_code}
#define FMM_SIGMOID_CLAMP ${clamp}

/* C twin of repro.core.mathops.sigmoid_scalar: same clamp and branches. */
static double fmm_sigmoid(double x)
{
    if (x >= 0.0) {
        if (x > FMM_SIGMOID_CLAMP)
            x = FMM_SIGMOID_CLAMP;
        return 1.0 / (1.0 + exp(-x));
    }
    if (x < -FMM_SIGMOID_CLAMP)
        x = -FMM_SIGMOID_CLAMP;
    double e = exp(x);
    return e / (1.0 + e);
}
"""
)

# Fixed-order reductions over 8 lanes of the feature type, combined
# pairwise into a double: the same bytes for any row, any thread.
_LANES = Template(
    r"""
static double fmm_dot_${t}(const ${T} *x, const ${T} *y, int64_t d)
{
    ${T} lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t j = 0;
    for (; j + 8 <= d; j += 8)
        for (int k = 0; k < 8; ++k)
            lane[k] += x[j + k] * y[j + k];
    for (int k = 0; j < d; ++j, ++k)
        lane[k] += x[j] * y[j];
    return (((double)lane[0] + lane[1]) + ((double)lane[2] + lane[3]))
         + (((double)lane[4] + lane[5]) + ((double)lane[6] + lane[7]));
}

static double fmm_sqdist_${t}(const ${T} *x, const ${T} *y, int64_t d)
{
    ${T} lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t j = 0;
    for (; j + 8 <= d; j += 8)
        for (int k = 0; k < 8; ++k) {
            ${T} w = x[j + k] - y[j + k];
            lane[k] += w * w;
        }
    for (int k = 0; j < d; ++j, ++k) {
        ${T} w = x[j] - y[j];
        lane[k] += w * w;
    }
    return (((double)lane[0] + lane[1]) + ((double)lane[2] + lane[3]))
         + (((double)lane[4] + lane[5]) + ((double)lane[6] + lane[7]));
}
"""
)

# The shared row driver: rows [row_start, row_stop) into the C-contiguous
# out, row u at out[u - row_offset].  ${edge} is the per-edge body of one
# pattern; it reads xu/yv/a and updates acc[0:d].  Rows without edges are 0.
_ROW_DRIVER = Template(
    r"""
int fmm_run_${suffix}(const int64_t *indptr, const int64_t *indices,
                      const void *data_, const void *X_, const void *Y_,
                      void *out_, int64_t d, int64_t row_start,
                      int64_t row_stop, int64_t row_offset, double alpha)
{
    const ${D} *data = (const ${D} *)data_;
    const ${T} *X = (const ${T} *)X_;
    const ${T} *Y = (const ${T} *)Y_;
    ${O} *out = (${O} *)out_;
    double *acc = (double *)malloc(2 * (size_t)(d > 0 ? d : 1) * sizeof(double));
    if (acc == NULL)
        return -1;
    double *w = acc + d;
    (void)data; (void)X; (void)w; (void)alpha;
    for (int64_t u = row_start; u < row_stop; ++u) {
        ${O} *z = out + (u - row_offset) * d;
        int64_t lo = indptr[u], hi = indptr[u + 1];
        if (lo == hi) {
            for (int64_t j = 0; j < d; ++j)
                z[j] = 0;
            continue;
        }
        const ${T} *xu = X + u * d;
        (void)xu;
        for (int64_t j = 0; j < d; ++j)
            acc[j] = ${identity};
        for (int64_t e = lo; e < hi; ++e) {
            const ${T} *yv = Y + indices[e] * d;
            double a = ${load_a};
            (void)a;${edge}
        }
        for (int64_t j = 0; j < d; ++j)
            z[j] = (${O})acc[j];
    }
    free(acc);
    return 0;
}
"""
)

#: Hand-fused edge bodies of the Table III patterns.
_SIGMOID_EDGE = r"""
            /* VOP+ROP: dot product; SOP: sigmoid; MOP+AOP: scaled sum */
            double h = fmm_sigmoid(fmm_dot_${t}(xu, yv, d));
            for (int64_t j = 0; j < d; ++j)
                acc[j] += h * (double)yv[j];"""

_FR_EDGE = r"""
            /* VOP+ROP: |x_u - y_v|; SOP: Student-t force; MOP: x_u - y_v */
            double dist = sqrt(fmm_sqdist_${t}(xu, yv, d));
            double force = 1.0 / (1.0 + dist * dist);
            for (int64_t j = 0; j < d; ++j)
                acc[j] += force * (double)(xu[j] - yv[j]);"""

_SPMM_EDGE = r"""
            /* SEL2ND message scaled by the edge value, summed */
            for (int64_t j = 0; j < d; ++j)
                acc[j] += a * (double)yv[j];"""

# The generic opcode body: the semantics of repro.core.generic.update_u
# (and of the jit pipeline kernel), with the opcodes as constants.
_GENERIC_HELPERS = r"""
static double fmm_sop(double s, double alpha)
{
    (void)alpha;
#if FMM_SOP == 0
    return s;
#elif FMM_SOP == 1
    return fmm_sigmoid(s);
#elif FMM_SOP == 2
    return (s > 0.0 || s != s) ? s : 0.0;
#elif FMM_SOP == 3
    return tanh(s);
#elif FMM_SOP == 4
    if (s > FMM_SIGMOID_CLAMP)
        s = FMM_SIGMOID_CLAMP;
    else if (s < -FMM_SIGMOID_CLAMP)
        s = -FMM_SIGMOID_CLAMP;
    return exp(s);
#elif FMM_SOP == 5
    return 1.0 / (1.0 + s * s);
#else
    return alpha * s;
#endif
}

/* MOP on message h, neighbour feature y, edge value a, VOP output w. */
static double fmm_mop(double h, double y, double a, double w)
{
    (void)h; (void)y; (void)a; (void)w;
#if FMM_MOP == 0 || FMM_MOP == 4
    return h;
#elif FMM_MOP == 1
    return h * y;
#elif FMM_MOP == 2 && FMM_ROP != 0
    return a * y; /* EDGESCALE on a scalar message scales the neighbour */
#elif FMM_MOP == 2
    return a * h;
#elif FMM_MOP == 3
    return h * w;
#elif FMM_MOP == 5
    return y;
#elif FMM_MOP == 6
    return h + y;
#else
    return h - y;
#endif
}

/* AOP; max/min propagate NaN like np.maximum/np.minimum. */
static double fmm_aop(double acc, double m)
{
#if FMM_AOP == 0
    return acc + m;
#elif FMM_AOP == 1
    return (m > acc || m != m) ? m : acc;
#else
    return (m < acc || m != m) ? m : acc;
#endif
}
"""

_GENERIC_EDGE = r"""
            for (int64_t j = 0; j < d; ++j) {
#if FMM_VOP == 0
                w[j] = (double)yv[j];
#elif FMM_VOP == 1
                w[j] = (double)(xu[j] + yv[j]);
#elif FMM_VOP == 2
                w[j] = (double)(xu[j] - yv[j]);
#elif FMM_VOP == 3
                w[j] = (double)(xu[j] * yv[j]);
#elif FMM_VOP == 4
                w[j] = (double)xu[j];
#else
                w[j] = a * (double)xu[j];
#endif
            }
#if FMM_ROP != 0
            double s;
#if FMM_ROP == 1
            s = 0.0;
            for (int64_t j = 0; j < d; ++j)
                s += w[j];
#elif FMM_ROP == 2
            s = 1.0;
            for (int64_t j = 0; j < d; ++j)
                s *= w[j];
#elif FMM_ROP == 3
            s = w[0];
            for (int64_t j = 1; j < d; ++j)
                if (w[j] > s || w[j] != w[j])
                    s = w[j];
#else
            s = 0.0;
            for (int64_t j = 0; j < d; ++j)
                s += w[j] * w[j];
            s = sqrt(s);
#endif
            double h = fmm_sop(s, alpha);
            for (int64_t j = 0; j < d; ++j)
                acc[j] = fmm_aop(acc[j], fmm_mop(h, (double)yv[j], a, w[j]));
#else
            for (int64_t j = 0; j < d; ++j)
                acc[j] = fmm_aop(
                    acc[j], fmm_mop(fmm_sop(w[j], alpha), (double)yv[j], a, w[j]));
#endif"""

_IDENTITY = {0: "0.0", 1: "-INFINITY", 2: "INFINITY"}


def compiled_supports_pattern(resolved: ResolvedPattern) -> bool:
    """Whether every slot of ``resolved`` maps onto the opcode tables
    (standard registry operators only — user callables cannot be emitted).
    The jit tier reads the same tables, so both cover the same patterns."""
    return jit_supports_pattern(resolved)


def _body_kind(resolved: ResolvedPattern) -> str:
    if resolved.is_sigmoid_embedding:
        return "sigmoid_embedding"
    if _is_tdist_fr(resolved):
        return "fr_layout"
    if _is_edge_scaled_spmm(resolved):
        return "spmm"
    return "generic"


def _uses_edge_values(resolved: ResolvedPattern) -> bool:
    return "EDGESCALE" in (resolved.vop.name, resolved.mop.name)


def _variants(resolved: ResolvedPattern):
    """``(feature, output, data)`` type codes of the emitted entry points.

    Patterns that never read the edge values get one data variant (the
    pointer is unused); ``x`` marks it in the symbol name."""
    datas = ("f", "d") if _uses_edge_values(resolved) else ("x",)
    return [(t, o, dt) for t in "fd" for o in "fd" for dt in datas]


def generate_kernel_source(pattern: ResolvedPattern) -> str:
    """The C source of the kernel specialised for ``pattern``.

    Raises :class:`~repro.errors.BackendError` when a slot is not a
    registry operator the opcode tables cover.
    """
    codes = _pattern_codes(pattern)
    body = _body_kind(pattern)
    names = pattern.op_names()
    parts = [
        _PREAMBLE.substitute(
            body=body,
            clamp=repr(float(SIGMOID_CLAMP)),
            vop_code=codes[0],
            rop_code=codes[1],
            sop_code=codes[2],
            mop_code=codes[3],
            aop_code=codes[4],
            **names,
        )
    ]
    parts += [_LANES.substitute(t=t, T=_C_TYPES[t]) for t in "fd"]
    if body == "generic":
        parts.append(_GENERIC_HELPERS)
    edge = {
        "sigmoid_embedding": _SIGMOID_EDGE,
        "fr_layout": _FR_EDGE,
        "spmm": _SPMM_EDGE,
        "generic": _GENERIC_EDGE,
    }[body]
    for t, o, dt in _variants(pattern):
        parts.append(
            _ROW_DRIVER.substitute(
                suffix=t + o + dt,
                T=_C_TYPES[t],
                O=_C_TYPES[o],
                D=_C_TYPES.get(dt, "float"),
                identity=_IDENTITY[codes[4]],
                load_a="0.0" if dt == "x" else "(double)data[e]",
                edge=Template(edge).substitute(t=t),
            )
        )
    return "".join(parts)


# ---------------------------------------------------------------------- #
# Calling the kernels
# ---------------------------------------------------------------------- #
_ARGTYPES = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 4 + [ctypes.c_double]
_CODES = {np.dtype(np.float32): "f", np.dtype(np.float64): "d"}


def _bind(lib: ctypes.CDLL, resolved: ResolvedPattern) -> Dict[str, Callable]:
    functions = {}
    for t, o, dt in _variants(resolved):
        fn = getattr(lib, f"fmm_run_{t}{o}{dt}")
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
        functions[t + o + dt] = fn
    return functions


def _normalise(A, X, Y, resolved: ResolvedPattern):
    """Validated operands in the layout the C entry points take: int64
    CSR arrays, C-contiguous float32/float64 features of one type.
    Returns ``(A, X, Y, result_dtype)``; ``X`` is ``Y`` for ``X=None``."""
    A, X, Y = validate_optional_x(A, X, Y, resolved)
    result_dtype = (Y if X is None else X).dtype
    feature = np.result_type(Y if X is None else X, Y)
    if feature not in _CODES:
        feature = np.dtype(np.float64)
    same = X is None or X is Y
    Y = np.ascontiguousarray(Y, dtype=feature)
    X = Y if same else np.ascontiguousarray(X, dtype=feature)
    return A, X, Y, result_dtype


def _make_kernel(resolved: ResolvedPattern, source: str, lib) -> Callable:
    functions = _bind(lib, resolved)
    alpha = float(resolved.sop.params.get("alpha", 1.0))
    uses_data = _uses_edge_values(resolved)

    def compiled_fusedmm(
        A,
        X,
        Y=None,
        *,
        block_size: int = 0,
        num_threads: int = 1,
        parts_per_thread: int = 1,
        parts: Optional[Sequence] = None,
        pool=None,
        out: Optional[np.ndarray] = None,
        row_offset: int = 0,
    ) -> np.ndarray:
        del block_size  # row-fused: no edge blocking to tune
        A, X_arr, Y_arr, result_dtype = _normalise(A, X, Y, resolved)
        m, d = A.nrows, Y_arr.shape[1]
        w0, w1 = resolve_out_window(out, row_offset, m, d)
        config = ParallelConfig(num_threads, parts_per_thread)
        parts = _window_parts(A, w0, w1, parts, config.num_parts)
        if out is not None:
            direct = out.dtype in _CODES and out.flags["C_CONTIGUOUS"]
            Z = out if direct else np.zeros((w1 - w0, d), dtype=np.float64)
        elif result_dtype in _CODES:
            Z = np.zeros((m, d), dtype=result_dtype)
        else:
            Z = np.zeros((m, d), dtype=np.float64)
        indptr = np.ascontiguousarray(A.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(A.indices, dtype=np.int64)
        data = A.data
        if uses_data:
            if data.dtype not in _CODES:
                data = data.astype(np.float64)
            data = np.ascontiguousarray(data)
            dcode = _CODES[data.dtype]
        else:
            dcode = "x"
        fn = functions[_CODES[X_arr.dtype] + _CODES[Z.dtype] + dcode]
        ptrs = (
            indptr.ctypes.data,
            indices.ctypes.data,
            data.ctypes.data,
            X_arr.ctypes.data,
            Y_arr.ctypes.data,
        )

        def run(part, z_slice: np.ndarray) -> None:
            if not 0 <= part.start <= part.stop <= m:
                raise PartitionError(
                    f"partition rows [{part.start}, {part.stop}) fall outside "
                    f"the matrix rows [0, {m})"
                )
            z = z_slice.ctypes.data
            if fn(*ptrs, z, d, part.start, part.stop, part.start, alpha) != 0:
                raise MemoryError("compiled FusedMM kernel could not allocate")

        run_partitioned(
            A, Z, run, config=config, parts=parts, pool=pool, row_offset=w0
        )
        if out is None:
            return Z if Z.dtype == result_dtype else Z.astype(result_dtype)
        if Z is not out:
            out[...] = Z
        return out

    compiled_fusedmm.__name__ = f"fusedmm_compiled_{resolved.name}"
    compiled_fusedmm.source = source  # type: ignore[attr-defined]
    return compiled_fusedmm


def get_compiled_kernel(pattern: ResolvedPattern | OpPattern | str) -> Callable:
    """The compiled kernel for ``pattern`` (emitted, compiled or loaded
    from the cache on first use, then memoised — the same object is
    returned every time).

    The callable takes the kernel surface ``kernel(A, X, Y,
    *, num_threads=, parts=, pool=, out=, row_offset=)``.  Raises
    :class:`~repro.errors.BackendError` for unsupported patterns or when
    no compiler is found, :class:`~repro.errors.CodegenError` when the
    compiler rejects the source.
    """
    resolved = pattern
    if not isinstance(resolved, ResolvedPattern):
        resolved = get_pattern(pattern).resolved()
    key = (tuple(resolved.op_names().values()), resolved.sop.params.get("alpha"))
    kernel = _KERNELS.get(key)
    if kernel is None:
        source = generate_kernel_source(resolved)
        kernel = _make_kernel(resolved, source, _load_library(source))
        with _LOCK:
            kernel = _KERNELS.setdefault(key, kernel)
    return kernel
