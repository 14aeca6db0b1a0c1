"""The catalog: named relations plus the FDs declared on them.

This plays the role of the MySQL database the paper's prototype connects
to: users "visualize its relations and all FDs defined on each relation;
then, they are allowed to add other FDs ... and finally they can start
the process of FD validation" (Section 6).  A catalog persists to a
directory holding one CSV per relation and a ``catalog.json`` manifest
with schemas and declared FDs.
SQL also reads attached chunked stores, through :meth:`Catalog.table`;
the relation API, FDs and :meth:`~Catalog.save` never see them.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .csvio import load_csv, save_csv
from .errors import DuplicateRelationError, UnknownRelationError
from .relation import Relation
from .schema import RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.fd.fd import FunctionalDependency
    from repro.storage.reader import StoredRelation

__all__ = ["Catalog"]

_MANIFEST = "catalog.json"


class Catalog:
    """A mutable registry of relations and their declared FDs."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._fds: dict[str, list["FunctionalDependency"]] = {}
        self._stores: dict[str, "StoredRelation"] = {}

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation, replace: bool = False) -> None:
        """Register ``relation`` under its schema name."""
        name = relation.name
        if not replace and (name in self._relations or name in self._stores):
            raise DuplicateRelationError(name)
        self._stores.pop(name, None)
        self._relations[name] = relation
        self._fds.setdefault(name, [])

    def relation(self, name: str) -> Relation:
        """The relation called ``name``; raises :class:`UnknownRelationError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def replace_relation(self, relation: Relation) -> None:
        """Swap in a new instance for an existing relation name."""
        if relation.name not in self._relations:
            raise UnknownRelationError(relation.name)
        self._relations[relation.name] = relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation and its FDs."""
        if name not in self._relations:
            raise UnknownRelationError(name)
        del self._relations[name]
        self._fds.pop(name, None)

    def relation_names(self) -> list[str]:
        """All relation names, sorted."""
        return sorted(self._relations)

    # ------------------------------------------------------------------
    # SQL tables
    # ------------------------------------------------------------------
    def attach_store(self, store: "StoredRelation", replace: bool = False) -> None:
        """Register a chunked store as a SQL table (only :meth:`table`
        returns it); ``replace`` drops whatever held the name."""
        name = store.name
        if not replace and (name in self._relations or name in self._stores):
            raise DuplicateRelationError(name)
        self._relations.pop(name, None)
        self._fds.pop(name, None)
        self._stores[name] = store

    def table(self, name: str) -> "Relation | StoredRelation":
        """What a SQL scan of ``name`` reads: a relation or an attached store."""
        if name in self._relations:
            return self._relations[name]
        if name in self._stores:
            return self._stores[name]
        raise UnknownRelationError(name)

    def table_names(self) -> list[str]:
        """Every SQL-visible name (relations and attached stores), sorted."""
        return sorted([*self._relations, *self._stores])

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        for name in self.relation_names():
            yield self._relations[name]

    def __repr__(self) -> str:
        total_fds = sum(len(fds) for fds in self._fds.values())
        return f"Catalog({len(self._relations)} relations, {total_fds} FDs)"

    # ------------------------------------------------------------------
    # Functional dependencies
    # ------------------------------------------------------------------
    def declare_fd(self, relation_name: str, fd: "FunctionalDependency") -> None:
        """Declare an FD on a relation, checking the attributes exist."""
        relation = self.relation(relation_name)
        relation.schema.validate_names(fd.antecedent + fd.consequent)
        declared = self._fds.setdefault(relation_name, [])
        if fd not in declared:
            declared.append(fd)

    def declare_fds(
        self, relation_name: str, fds: Iterable["FunctionalDependency"]
    ) -> None:
        """Declare several FDs on one relation."""
        for fd in fds:
            self.declare_fd(relation_name, fd)

    def fds(self, relation_name: str) -> list["FunctionalDependency"]:
        """The FDs declared on a relation (a copy)."""
        self.relation(relation_name)
        return list(self._fds.get(relation_name, []))

    def drop_fd(self, relation_name: str, fd: "FunctionalDependency") -> None:
        """Remove one declared FD."""
        declared = self._fds.get(relation_name, [])
        if fd in declared:
            declared.remove(fd)

    def replace_fd(
        self,
        relation_name: str,
        old: "FunctionalDependency",
        new: "FunctionalDependency",
    ) -> None:
        """Swap a declared FD for its repaired version (keeps position).

        This is the catalog-level effect of the designer accepting a
        repair in the semi-automatic loop.
        """
        declared = self._fds.get(relation_name, [])
        for index, fd in enumerate(declared):
            if fd == old:
                declared[index] = new
                return
        declared.append(new)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist to ``directory``: one CSV per relation + manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {"relations": [], "fds": {}}
        for name in self.relation_names():
            relation = self._relations[name]
            save_csv(relation, directory / f"{name}.csv")
            manifest["relations"].append(relation.schema.to_dict())
            manifest["fds"][name] = [fd.to_dict() for fd in self._fds.get(name, [])]
        with (directory / _MANIFEST).open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory: str | Path) -> "Catalog":
        """Load a catalog previously written by :meth:`save`."""
        from repro.fd.fd import FunctionalDependency  # local: avoids import cycle

        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        with manifest_path.open(encoding="utf-8") as handle:
            manifest = json.load(handle)
        catalog = cls()
        for schema_dict in manifest["relations"]:
            schema = RelationSchema.from_dict(schema_dict)
            relation = load_csv(directory / f"{schema.name}.csv", schema=schema)
            catalog.add_relation(relation)
        for name, fd_dicts in manifest.get("fds", {}).items():
            for fd_dict in fd_dicts:
                catalog.declare_fd(name, FunctionalDependency.from_dict(fd_dict))
        return catalog
