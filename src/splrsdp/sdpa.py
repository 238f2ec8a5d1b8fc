"""Reader/writer for the sparse SDPA data format (.dat-s).

The file encodes block matrices F_0 (objective) and F_1..F_m (constraint
rows) plus a right-hand-side vector.  Lines after the header are
"matno blkno i j value" with i <= j inside the block and matno 0 for the
objective.  Negative block sizes mark diagonal (LP) blocks.  Comment lines
start with '"' or '*'.
"""

__all__ = ["write_sdpa", "parse_sdpa"]


def _fmt(x):
    return repr(float(x))


def write_sdpa(fh, m, block_sizes, rhs, entries):
    """entries: iterable of (matno, blkno, i, j, value), all 1-based."""
    if len(rhs) != m:
        raise ValueError("rhs length %d != mDIM %d" % (len(rhs), m))
    fh.write("%d\n" % m)
    fh.write("%d\n" % len(block_sizes))
    fh.write(" ".join(str(int(b)) for b in block_sizes) + "\n")
    fh.write(" ".join(_fmt(v) for v in rhs) + "\n")
    for matno, blkno, i, j, v in entries:
        if i > j:
            i, j = j, i
        if v != 0.0:
            fh.write("%d %d %d %d %s\n" % (matno, blkno, i, j, _fmt(v)))


def parse_sdpa(fh):
    """Returns (m, block_sizes, rhs, entries).

    Accepts the usual loose formatting: comments, brace/comma decorated block
    size lines, blank lines.
    """
    lines = []
    for raw in fh:
        line = raw.strip()
        if not line or line[0] in "\"*":
            continue
        lines.append(line)
    if len(lines) < 4:
        raise ValueError("truncated SDPA file")
    m = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    clean = lines[2].replace(",", " ").replace("{", " ").replace("}", " ")
    clean = clean.replace("(", " ").replace(")", " ")
    block_sizes = [int(float(tok)) for tok in clean.split()]
    if len(block_sizes) != nblocks:
        raise ValueError("expected %d block sizes, got %d" % (nblocks, len(block_sizes)))
    clean = lines[3].replace(",", " ").replace("{", " ").replace("}", " ")
    rhs = [float(tok) for tok in clean.split()]
    if len(rhs) != m:
        raise ValueError("expected %d rhs values, got %d" % (m, len(rhs)))
    entries = []
    for line in lines[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValueError("bad entry line: %r" % line)
        matno, blkno, i, j = (int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]))
        v = float(toks[4])
        if not (0 <= matno <= m):
            raise ValueError("matrix index %d out of range" % matno)
        if not (1 <= blkno <= nblocks):
            raise ValueError("block index %d out of range" % blkno)
        dim = abs(block_sizes[blkno - 1])
        if not (1 <= i <= j <= dim):
            raise ValueError("entry (%d, %d) outside block %d" % (i, j, blkno))
        entries.append((matno, blkno, i, j, v))
    return m, block_sizes, rhs, entries
