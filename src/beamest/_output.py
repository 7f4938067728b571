"""The one way the package writes a file, and formats a table with a header."""

from __future__ import annotations

import contextlib
import os
import stat

import numpy as np


@contextlib.contextmanager
def output_file(path):
    """``path`` opened for ASCII text, written over any file already there.

    It acts like ``open(path, "w", encoding="ascii")``: symlinks are followed,
    and the inode, the mode and the umask behaviour are kept.  What differs is
    that an existing file is not first truncated to zero.  The text goes in
    from offset 0, and the file is cut to the written length when the block
    ends, normally or by an exception.  So an early stop leaves exactly what
    was written, as ``open(path, "w")`` does.  Truncating to zero and then
    refilling makes ext4 (default ``auto_da_alloc``) send the new blocks to
    storage at close; a rewrite in place does not.  No fsync is added.  An
    ``OSError`` raised in the block names ``path`` as its ``filename``, a
    failed write or flush too.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  encoding="ascii") as fh:
            try:
                yield fh
            finally:
                fh.flush()
                # only a regular file has an old tail to cut (not a device or a pipe)
                info = os.fstat(fh.fileno())
                if stat.S_ISREG(info.st_mode) and info.st_size > fh.tell():
                    fh.truncate()
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def csv_text(header: str, columns) -> str:
    """``header``, then one line per row of ``columns``, numpy arrays of
    numbers or bools of one length, each formatted by one ``tolist``: a float
    by ``repr``, an int by ``str``, a bool as 0 or 1 (any nonzero byte is 1)."""
    fields = (map(repr, (c.astype(np.uint8) if c.dtype.kind == "b" else c).tolist())
              for c in columns)
    return "\n".join([header, *map(",".join, zip(*fields, strict=True))]) + "\n"
