"""Reading link graphs, matrices and weights files, and writing the matrix echo.

Three input formats:

* edge list -- one ``src dst`` pair per line, whitespace separated, 1-based
  ids, ``#`` starts a comment. Every node's out-links get uniform weight
  (the hyperlink-matrix convention). Nodes without out-links are rejected
  unless a dangling policy says otherwise, and so is a node id whose dense
  matrix would exceed physical memory, where the platform reports its size,
  or cannot be allocated.
* matrix CSV -- m lines of m comma-separated probabilities.
* matrix JSON -- ``{"matrix": [[...]], "damping": [...]}``; damping optional.

Damping weights default to uniform when the input does not provide them.
"""

import enum
import json
import os
from pathlib import Path

import numpy as np

from .core import DampingVector, RowNonzeros, StochasticMatrix, _scan, row_nonzeros
from .errors import IngestError, ValidationError


class GraphFormat(enum.Enum):
    EDGE_LIST = "edges"
    MATRIX_CSV = "csv"
    MATRIX_JSON = "json"


class DanglingPolicy(enum.Enum):
    REJECT = "reject"
    SELF_LOOP = "self-loop"
    UNIFORM_JUMP = "uniform-jump"


def guess_format(path) -> GraphFormat:
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return GraphFormat.MATRIX_JSON
    if suffix == ".csv":
        return GraphFormat.MATRIX_CSV
    return GraphFormat.EDGE_LIST


def _choice(kind, value, name: str):
    """``kind(value)``, for a member of the enum ``kind`` or its value string; anything else is refused."""
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(repr(member.value) for member in kind)
        raise ValidationError(f"{name} must be one of {choices}, got {value!r}") from None


def _validated(kind, values: np.ndarray, name: str):
    """``kind(values)``, its ``ValueError`` turned into an IngestError that names ``name``."""
    try:
        return kind(values)
    except ValueError as exc:
        raise IngestError(f"{name} failed validation: {exc}") from exc


def physical_memory() -> float:
    """Bytes of physical memory, or ``inf`` where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        # No os.sysconf (Windows), or no such name: the allocation is the only check.
        return float("inf")


def _parse_edge_list(text: str, dangling: DanglingPolicy) -> StochasticMatrix:
    """The hyperlink matrix of an edge list.

    Every node's out-links get uniform weight; duplicate edges are collapsed.
    Dangling nodes (no out-links) follow the policy: reject, add a self-loop,
    or jump uniformly to every node. The out-degrees are counted from the
    edges, and the matrix's row-compressed view is built from them here.
    """
    edges = []
    m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise IngestError(f"line {lineno}: expected 'src dst', got {raw!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise IngestError(f"line {lineno}: node ids must be integers, got {raw!r}")
        if src < 1 or dst < 1:
            raise IngestError(f"line {lineno}: node ids are 1-based, got {src} -> {dst}")
        edges.append((src - 1, dst - 1))
        m = max(m, src, dst)
    if not edges:
        raise IngestError("edge list contains no edges")
    dense_bytes = 8 * m * m
    too_large = f"node id {m} needs a dense {m} x {m} matrix of {dense_bytes / 2**30:.1f} GiB"
    memory = physical_memory()
    if dense_bytes > memory:
        raise IngestError(f"{too_large}, more than the {memory / 2**30:.1f} GiB of physical memory")
    try:
        entries = np.zeros((m, m))
    except MemoryError:
        raise IngestError(f"{too_large}, more than could be allocated") from None
    # Link i -> j has the key i * m + j, so the sorted distinct keys are the
    # nonzeros in row order. They are not taken by np.unique, whose first call
    # maps some 1.2 MB more of NumPy into memory than np.sort's.
    edges = np.array(edges)
    keys = edges[:, 0] * m + edges[:, 1]
    linked = np.zeros(m, dtype=bool)
    linked[edges[:, 0]] = True
    no_links = np.flatnonzero(~linked)
    if no_links.size:
        if dangling is DanglingPolicy.REJECT:
            raise IngestError(
                f"node {no_links[0] + 1} has no out-links; choose a dangling policy "
                "(self-loop or uniform-jump) to accept it"
            )
        if dangling is DanglingPolicy.SELF_LOOP:
            extra = no_links * (m + 1)
        else:
            extra = (no_links[:, np.newaxis] * m + np.arange(m)).ravel()
        keys = np.concatenate([keys, extra])
    keys = np.sort(keys)
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    rows, cols = keys // m, keys % m
    degree = np.bincount(rows, minlength=m)
    values = 1.0 / degree[rows]
    entries[rows, cols] = values
    return StochasticMatrix._of_nonzeros(entries, RowNonzeros(degree, cols, values))


def _parse_matrix_csv(text: str) -> StochasticMatrix:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            raise IngestError(f"line {lineno}: could not parse CSV floats: {raw!r}")
    if not rows:
        raise IngestError("CSV matrix is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise IngestError(f"CSV matrix must be square, got {len(rows)} rows of width {width}")
    return _validated(StochasticMatrix, np.array(rows), "matrix")


def _float_array(doc: dict, field: str) -> np.ndarray:
    """``doc[field]`` as a float array; each entry must be a JSON number, not a string or boolean."""
    try:
        values = np.array(doc[field], dtype=object)
        if all(type(x) in (int, float) for x in values.flat):
            return values.astype(float)
    except (ValueError, OverflowError):
        pass
    raise IngestError(f"'{field}' must be a rectangular array of numbers")


def _parse_matrix_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise IngestError("matrix JSON must be an object with a 'matrix' field")
    matrix = _float_array(doc, "matrix")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise IngestError(f"'matrix' must be square, got shape {matrix.shape}")
    damping = None
    if doc.get("damping") is not None:
        damping = _float_array(doc, "damping")
        if damping.shape != (matrix.shape[0],):
            raise IngestError("'damping' length must match the matrix dimension")
    matrix = _validated(StochasticMatrix, matrix, "matrix")
    if damping is not None:
        damping = _validated(DampingVector, damping, "damping")
    return matrix, damping


def _read_text(path, name: str) -> str:
    """The UTF-8 text of the file ``path``; a file that cannot be read is an IngestError naming ``name``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise IngestError(f"{name} file not found: {path}") from exc
    except OSError as exc:
        raise IngestError(f"{name} file {path} cannot be read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name} file {path} is not UTF-8 text: {exc}") from exc


def ingest(
    path,
    fmt: GraphFormat = None,
    dangling: DanglingPolicy = DanglingPolicy.REJECT,
):
    """Read a file and return ``(matrix, damping_or_None)``.

    ``fmt`` (guessed from the file name when None) and ``dangling`` are each
    a member of their enum or its value string, such as ``"edges"`` or
    ``"self-loop"``. Only matrix JSON can carry damping weights; other formats
    return None and callers fall back to uniform weights.
    """
    fmt = guess_format(path) if fmt is None else _choice(GraphFormat, fmt, "format")
    dangling = _choice(DanglingPolicy, dangling, "dangling policy")
    text = _read_text(path, "input")
    if fmt is GraphFormat.EDGE_LIST:
        return _parse_edge_list(text, dangling), None
    if fmt is GraphFormat.MATRIX_CSV:
        return _parse_matrix_csv(text), None
    return _parse_matrix_json(text)


def load_weights(path, dim: int, name: str, vector_type):
    """A ``vector_type`` of the ``dim`` weights in a whitespace-separated file; errors say ``name``."""
    text = _read_text(path, name)
    try:
        weights = [float(x) for x in text.split()]
    except ValueError as exc:
        raise IngestError(f"{name} file must contain floats: {exc}") from exc
    if len(weights) != dim:
        raise IngestError(f"{name} file has {len(weights)} entries, expected {dim}")
    return _validated(vector_type, np.array(weights), name)


def load_damping(path, dim: int) -> DampingVector:
    """Read damping weights from a whitespace-separated text file."""
    return load_weights(path, dim, "damping", DampingVector)


# Stands in a document for a matrix that dumps_with_matrix writes from its
# array. No report or matrix document holds this string; json writes it as
# "\u0000matrix".
MATRIX_SLOT = "\x00matrix"


def _echo_nonzeros(matrix) -> RowNonzeros:
    """Every entry of ``matrix`` with nonzero bits, row by row: a :class:`StochasticMatrix` or an array.

    A matrix's are read from its row-compressed view
    (:func:`~dampedchain.core.row_nonzeros`). An array is scanned, and a
    non-finite entry raises ``ValueError``, as ``allow_nan=False`` does.
    """
    if isinstance(matrix, StochasticMatrix):
        return row_nonzeros(matrix)
    finite = np.isfinite(matrix)
    if not finite.all():
        bad = float(matrix[~finite][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return _scan(matrix)


def _matrix_pieces(matrix, indent: int):
    """Yield ``json.dumps(entries.tolist(), indent=2)`` opened ``indent`` spaces in, a row at a time.

    ``matrix`` is a :class:`StochasticMatrix` or an array of its entries.
    Every row is one all-zero row string with the row's entries of nonzero
    bits spliced in (:func:`_echo_nonzeros`): entry j's ``0.0`` sits at offset
    ``j * (3 + len(sep))``, and the entry writes ``repr(float(x))``, which is
    what json's float encoder writes, so ``-0.0`` stays ``-0.0``.
    """
    nonzeros = _echo_nonzeros(matrix)
    m = len(nonzeros.counts)
    outer = "\n" + " " * (indent + 2)
    open_row = "[\n" + " " * (indent + 4)
    close_row = outer + "]"
    sep = ",\n" + " " * (indent + 4)
    zero_row = sep.join(["0.0"] * m)
    stride = 3 + len(sep)
    values = nonzeros.values.tolist()
    offsets = (nonzeros.cols * stride).tolist()
    bounds = [0, *np.cumsum(nonzeros.counts).tolist()]
    yield "[" + outer
    for i in range(m):
        row = [open_row]
        at = 0
        for k in range(bounds[i], bounds[i + 1]):
            row += (zero_row[at : offsets[k]], repr(values[k]))
            at = offsets[k] + 3
        row += (zero_row[at:], close_row, "," + outer if i + 1 < m else "\n" + " " * indent + "]")
        yield "".join(row)


def dumps_with_matrix(doc: dict, matrix) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)`` of ``doc`` holding ``matrix``'s entries.

    ``matrix`` is a :class:`StochasticMatrix` or an array. ``doc`` holds
    :data:`MATRIX_SLOT` where the matrix goes; the text is the same as with
    ``entries.tolist()`` in its place, but the matrix is written row by row
    from its nonzeros instead of through json's per-float encoder.
    """
    text = json.dumps(doc, indent=2, allow_nan=False)
    head, _, tail = text.partition(json.dumps(MATRIX_SLOT))
    line = head[head.rfind("\n") + 1 :]
    indent = len(line) - len(line.lstrip(" "))
    return "".join([head, *_matrix_pieces(matrix, indent), tail])
