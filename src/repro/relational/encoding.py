"""Dictionary encoding of columns.

Every column is stored as a dense vector of integer *codes* plus a
*dictionary* mapping codes back to values.  This is the single most
important performance decision in the engine: the CB method reduces to
counting distinct code-tuples, which is orders of magnitude faster over
small ints than over arbitrary Python values, and it lets partitions be
computed with plain list indexing.

NULL is encoded as :data:`NULL_CODE` (-1) and never enters the
dictionary, mirroring SQL semantics where ``COUNT(DISTINCT x)`` ignores
NULLs but grouping treats NULL as its own class.

Encoding itself runs through the active kernel backend
(:mod:`repro.relational.kernels`): the numpy backend factorizes
homogeneous columns vectorized and caches the codes as an ``int64``
array (:meth:`EncodedColumn.kernel_codes`), which is the representation
every array kernel downstream consumes.  ``codes`` stays a plain
``list[int]`` either way — the public contract is unchanged.

Columns grown by :meth:`EncodedColumn.extended` (``Relation.extend``)
share one append-only log per extension chain instead of copying the
column per snapshot; each snapshot sees its own prefix of it, so it
stays immutable while the chain head grows in O(Δ).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from typing import Any

from . import kernels

__all__ = [
    "NULL_CODE",
    "UNSEEN_CODE",
    "EncodedColumn",
    "encode_values",
    "remap_dictionary",
]

#: Code reserved for NULL; codes for real values are 0..cardinality-1.
NULL_CODE = -1

#: Code-space sentinel for "value absent from this dictionary", used
#: when one column's codes are remapped into another's code space
#: (joins, column-vs-column predicates).  Never collides with a real
#: code (≥ 0) or with NULL_CODE.
UNSEEN_CODE = -2


class EncodedColumn:
    """A dictionary-encoded column.

    Attributes
    ----------
    codes:
        One int per row; ``NULL_CODE`` for NULLs.
    dictionary:
        ``dictionary[code]`` is the decoded value for that code.
    """

    __slots__ = ("codes", "dictionary", "_value_to_code", "_codes_array", "_null_count")

    def __init__(self, codes: list[int], dictionary: list[Any]) -> None:
        self.codes = codes
        self.dictionary = dictionary
        self._value_to_code: dict[Any, int] | None = None
        self._codes_array: Any = None
        self._null_count: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable[Any]) -> "EncodedColumn":
        """Encode an iterable of Python values (``None`` = NULL).

        Factorization is delegated to the active kernel backend; the
        numpy backend also hands back the codes as an ``int64`` array,
        cached for :meth:`kernel_codes`.
        """
        codes, dictionary, value_to_code, codes_array = (
            kernels.get_backend().factorize(values)
        )
        column = cls(codes, dictionary)
        column._value_to_code = value_to_code
        column._codes_array = codes_array
        return column

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    @property
    def cardinality(self) -> int:
        """Number of distinct non-NULL values."""
        return len(self.dictionary)

    @property
    def null_count(self) -> int:
        """Number of NULLs in the column (scanned once, then cached).

        The cache is maintained through :meth:`append_value` and
        :meth:`extended`, so the NULL checks the measure layer runs per
        window stay O(1) along a delta chain instead of rescanning the
        column.
        """
        if self._null_count is None:
            self._null_count = self.codes.count(NULL_CODE)
        return self._null_count

    @property
    def has_nulls(self) -> bool:
        """Whether the column contains at least one NULL."""
        return self.null_count > 0

    def value(self, row: int) -> Any:
        """Decoded value at ``row`` (``None`` for NULL)."""
        code = self.codes[row]
        if code == NULL_CODE:
            return None
        return self.dictionary[code]

    def values(self) -> list[Any]:
        """All decoded values, in row order."""
        dictionary = self.dictionary
        return [
            None if code == NULL_CODE else dictionary[code] for code in self.codes
        ]

    def kernel_codes(self) -> Sequence[int]:
        """The codes in the active backend's preferred representation.

        The python backend returns ``codes`` itself; the numpy backend
        returns (and caches) a read-only ``int64`` array.  Partition
        and counting kernels consume this form.
        """
        return kernels.get_backend().column_codes(self)

    def code_for(self, value: Any) -> int | None:
        """Code of ``value``, or ``None`` if the value never occurs.

        Builds the reverse map lazily; selection predicates use this to
        turn a value comparison into an int comparison.
        """
        if value is None:
            return NULL_CODE
        if self._value_to_code is None:
            self._value_to_code = {
                v: code for code, v in enumerate(self.dictionary)
            }
        return self._value_to_code.get(value)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def extended(self, values: Sequence[Any]) -> "EncodedColumn":
        """A new column with ``values`` appended — codes assigned
        incrementally, never re-factorized.

        The parent's first-seen code assignment is a prefix of the
        extension's, so the result is byte-identical to cold-encoding
        the concatenated value list (on either kernel backend).  The
        first extension of a plain column copies its codes, dictionary
        and reverse map once, O(n), into an append-only log that every
        later snapshot of the chain shares (:class:`_ColumnLog`); from
        then on extending the chain head costs one dictionary probe per
        new value.  This column is untouched.
        """
        return _ColumnLog.seeded(self).append(values, self.null_count)

    def slice_reencoded(self, start: int, end: int) -> "EncodedColumn":
        """Rows ``[start, end)`` as a compactly re-encoded column.

        Equivalent to ``EncodedColumn.from_values(self.values()[start:end])``
        but works code-to-code: the remap hashes small ints instead of
        arbitrary (often string) values, which is how ``TupleLog``
        slices windows out of its shared encoded state without paying
        value encoding per window.  First-seen order is preserved, so
        the result is byte-identical to cold encoding.
        """
        remap: dict[int, int] = {}
        new_codes: list[int] = []
        new_dictionary: list[Any] = []
        dictionary = self.dictionary
        for code in self.codes[start:end]:
            if code == NULL_CODE:
                new_codes.append(NULL_CODE)
                continue
            new_code = remap.get(code)
            if new_code is None:
                new_code = len(new_dictionary)
                remap[code] = new_code
                new_dictionary.append(dictionary[code])
            new_codes.append(new_code)
        return EncodedColumn(new_codes, new_dictionary)

    def take(self, rows: Sequence[int]) -> "EncodedColumn":
        """A new column containing only ``rows`` (re-encoded compactly).

        Runs code-to-code through the active kernel backend — the remap
        hashes small ints (vectorized on numpy) instead of decoding and
        re-hashing values, and the new dictionary shares this column's
        value objects.  First-seen order is preserved, so the result is
        byte-identical to decode-then-``from_values``.
        """
        codes, dictionary, value_to_code, codes_array = (
            kernels.get_backend().take_reencode(self, rows)
        )
        column = EncodedColumn(codes, dictionary)
        column._value_to_code = value_to_code
        column._codes_array = codes_array
        return column

    def append_value(self, value: Any) -> None:
        """Append one value in place (used by builders, not by Relation)."""
        self._codes_array = None  # the cached array no longer matches
        if value is None:
            if self._null_count is not None:
                self._null_count += 1
            self.codes.append(NULL_CODE)
            return
        if self._value_to_code is None:
            self._value_to_code = {
                v: code for code, v in enumerate(self.dictionary)
            }
        code = self._value_to_code.get(value)
        if code is None:
            code = len(self.dictionary)
            self._value_to_code[value] = code
            self.dictionary.append(value)
        self.codes.append(code)


#: Minimum code capacity of a fresh numpy-backed :class:`_ColumnLog`.
_MIN_LOG_CAPACITY = 64

#: Serializes the head check and the in-place append of every
#: :class:`_ColumnLog`, so two threads extending the same snapshot
#: cannot both claim its tail.
_LOG_LOCK = threading.Lock()


class _ColumnLog:
    """Append-only column storage shared along one extension chain.

    Holds the codes (an ``int64`` buffer with doubling capacity when
    NumPy imports, else a list), the dictionary and the reverse map.
    Each snapshot (:class:`_LogColumn`) sees the prefix of ``rows`` and
    ``cardinality`` it was created with.  Ownership rule: only the
    snapshot whose prefix is the whole log — the chain head — appends
    in place, so an append writes past every existing snapshot's prefix
    and never changes what one sees.  Extending any other snapshot (a
    second branch) seeds a private log first.
    """

    __slots__ = ("codes", "rows", "dictionary", "value_to_code")

    def __init__(self, codes: Any, rows: int, dictionary: list[Any]) -> None:
        self.codes = codes
        self.rows = rows
        self.dictionary = dictionary
        self.value_to_code = {value: code for code, value in enumerate(dictionary)}

    @classmethod
    def seeded(cls, column: EncodedColumn) -> "_ColumnLog":
        """A private log holding a copy of ``column``'s rows, O(n)."""
        source = column._codes_array
        if source is None:
            source = column.codes
        rows = len(source)
        if kernels.numpy_available():
            import numpy as np  # local: only reachable with numpy present

            codes = np.empty(max(2 * rows, _MIN_LOG_CAPACITY), dtype=np.int64)
            codes[:rows] = source
        else:
            codes = list(source)
        return cls(codes, rows, list(column.dictionary))

    def append(self, values: Sequence[Any], null_count: int) -> "_LogColumn":
        """Append ``values`` after the last row; the new head snapshot.

        ``null_count`` is the NULL count of the snapshot being extended.
        The caller must own the log (be its head).
        """
        dictionary = self.dictionary
        value_to_code = self.value_to_code
        new_codes: list[int] = []
        nulls = 0
        for value in values:
            if value is None:
                new_codes.append(NULL_CODE)
                nulls += 1
                continue
            code = value_to_code.get(value)
            if code is None:
                code = len(dictionary)
                value_to_code[value] = code
                dictionary.append(value)
            new_codes.append(code)
        start = self.rows
        end = start + len(new_codes)
        codes = self.codes
        if codes.__class__ is list:
            codes.extend(new_codes)
        else:
            if end > len(codes):
                import numpy as np  # local: only reachable with numpy present

                grown = np.empty(max(2 * len(codes), end), dtype=codes.dtype)
                grown[:start] = codes[:start]
                self.codes = codes = grown
            codes[start:end] = new_codes
        self.rows = end
        return _LogColumn(self, end, len(dictionary), null_count + nulls)

    def array_view(self, rows: int) -> Any:
        """The first ``rows`` codes as a read-only ``int64`` view, or
        ``None`` when the codes live in a list."""
        codes = self.codes
        if codes.__class__ is list:
            return None
        view = codes[:rows]
        view.flags.writeable = False
        return view

    def code_list(self, rows: int) -> list[int]:
        """A fresh list of the first ``rows`` codes."""
        prefix = self.codes[:rows]
        return prefix if prefix.__class__ is list else prefix.tolist()


class _LogColumn(EncodedColumn):
    """An :class:`EncodedColumn` snapshot over a shared :class:`_ColumnLog`.

    The numpy code array is a read-only view of the log's first
    ``rows`` codes, made at construction; the ``codes`` and
    ``dictionary`` lists are built only when something reads them.
    These lazy attributes live on this private subclass alone, so a
    plain :class:`EncodedColumn` keeps plain slot reads.
    """

    __slots__ = ("_log", "_rows", "_cardinality", "_codes_list", "_dictionary_list")

    def __init__(
        self, log: _ColumnLog, rows: int, cardinality: int, null_count: int
    ) -> None:
        self._log = log
        self._rows = rows
        self._cardinality = cardinality
        self._null_count = null_count
        self._codes_list: list[int] | None = None
        self._dictionary_list: list[Any] | None = None
        self._codes_array = log.array_view(rows)

    @property
    def codes(self) -> list[int]:  # type: ignore[override]
        """One int per row, as a list built on first read."""
        if self._codes_list is None:
            self._codes_list = self._log.code_list(self._rows)
        return self._codes_list

    @property
    def dictionary(self) -> list[Any]:  # type: ignore[override]
        """This snapshot's dictionary, as a list built on first read."""
        if self._dictionary_list is None:
            self._dictionary_list = self._log.dictionary[: self._cardinality]
        return self._dictionary_list

    def __len__(self) -> int:
        return self._rows

    @property
    def cardinality(self) -> int:
        """Number of distinct non-NULL values."""
        return self._cardinality

    def code_for(self, value: Any) -> int | None:
        """Code of ``value``, or ``None`` if the value never occurs.

        The shared reverse map also holds values later snapshots
        introduced; their codes are ≥ this snapshot's cardinality.
        """
        if value is None:
            return NULL_CODE
        code = self._log.value_to_code.get(value)
        if code is None or code >= self._cardinality:
            return None
        return code

    def extended(self, values: Sequence[Any]) -> "EncodedColumn":
        """A new snapshot with ``values`` appended.

        The chain head appends to the shared log in place, O(Δ)
        amortized; any other snapshot first copies its own rows into a
        private log (see :class:`_ColumnLog`).
        """
        with _LOG_LOCK:
            if self._log.rows == self._rows:
                return self._log.append(values, self._null_count)
        return super().extended(values)

    def append_value(self, value: Any) -> None:
        """Refused: an extension snapshot shares its storage."""
        raise TypeError("an extended column is an immutable snapshot")


def remap_dictionary(
    source: EncodedColumn, target: EncodedColumn, nan_matches: bool = True
) -> list[int]:
    """``target``'s code for each ``source`` dictionary value.

    Values absent from the target dictionary map to :data:`UNSEEN_CODE`.
    This is the cross-dictionary bridge both the code-space join and
    the column-vs-column predicates use: remap one side's codes through
    this table and two columns compare as ints.

    ``nan_matches`` selects the NaN policy.  Python dict lookup finds a
    NaN key by *identity* (``x is y or x == y``), which is exactly how
    the retired value-tuple join keys behaved — the join keeps that
    (``True``).  Predicate equality follows ``==`` alone, where NaN
    equals nothing, so the expression layer passes ``False`` and NaN
    maps to unseen.
    """
    mapping: list[int] = []
    for value in source.dictionary:
        if not nan_matches and value != value:  # NaN: never equal under ==
            mapping.append(UNSEEN_CODE)
            continue
        code = target.code_for(value)
        mapping.append(UNSEEN_CODE if code is None else code)
    return mapping


def encode_values(values: Iterable[Any]) -> EncodedColumn:
    """Module-level alias of :meth:`EncodedColumn.from_values`."""
    return EncodedColumn.from_values(values)
