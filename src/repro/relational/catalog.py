"""The system catalog: tables, views, and their metadata — as relations.

Following System R (and its 1983 contemporaries), the catalog itself is
queryable: ``SELECT * FROM _tables`` works, because the catalog synthesises
in-memory system relations (``_tables``, ``_columns``, ``_views``,
``_indexes``) on demand from its authoritative Python-side dictionaries.

Name resolution is shared between tables and views: a single namespace, so a
view cannot shadow a table.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.errors import CatalogError
from repro.relational.heap import HeapFile
from repro.relational.pager import MemoryPager
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.views.definition import ViewDefinition

SYSTEM_TABLE_NAMES = (
    "_tables",
    "_columns",
    "_views",
    "_indexes",
    # telemetry relations (built by repro.obs.systables; a catalog with no
    # registered source serves them empty)
    "_statements",
    "_slow_ops",
    "_metrics",
    "_plan_stats",
    "_table_stats",
    "_sessions",
    "_storage",
)


class Catalog:
    """Authoritative registry of tables and views for one database."""

    def __init__(self, heap_factory: Optional[Callable[[str], HeapFile]] = None) -> None:
        """*heap_factory* builds the heap for a new table (default: memory)."""
        self._heap_factory = heap_factory or (lambda name: HeapFile(MemoryPager()))
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, ViewDefinition] = {}
        #: Monotonic counter bumped on every schema change.  Consumers key
        #: memoized derivations (updatability analyses, cached plans) on it
        #: so a stale derivation can never outlive the schema it described.
        self.generation: int = 0
        #: view name -> (generation, UpdatableViewInfo) memo; see
        #: :func:`repro.views.update.analyze_updatability`.
        self.updatability_cache: Dict[str, tuple] = {}
        #: reserved system-table name -> zero-arg builder, registered by an
        #: owning subsystem (the database wires the telemetry relations here
        #: via :func:`repro.obs.systables.register_telemetry_tables`).
        self._system_sources: Dict[str, Callable[[], Table]] = {}

    def bump_generation(self) -> None:
        """Record a schema change: invalidate every generation-keyed memo."""
        self.generation += 1
        self.updatability_cache.clear()

    # -- tables ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register a new empty table with *schema*."""
        self._check_free(schema.name)
        table = Table(schema, self._heap_factory(schema.name))
        self._tables[schema.name] = table
        self.bump_generation()
        return table

    def drop_table(self, name: str) -> Table:
        """Unregister a table; fails if any view depends on it."""
        name = name.lower()
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        dependants = [v.name for v in self._views.values() if name in view_dependencies(v)]
        if dependants:
            raise CatalogError(
                f"cannot drop table {name!r}: views depend on it: {dependants}"
            )
        del self._tables[name]
        self.bump_generation()
        return table

    def table(self, name: str) -> Table:
        """The table named *name* (system tables are synthesised fresh)."""
        name = name.lower()
        if name in SYSTEM_TABLE_NAMES:
            return self._system_table(name)
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables or name.lower() in SYSTEM_TABLE_NAMES

    def tables(self) -> List[Table]:
        """All user tables, sorted by name."""
        return [self._tables[k] for k in sorted(self._tables)]

    # -- views -----------------------------------------------------------

    def create_view(self, view: ViewDefinition) -> None:
        self._check_free(view.name)
        self._views[view.name] = view
        self.bump_generation()

    def drop_view(self, name: str) -> ViewDefinition:
        name = name.lower()
        view = self._views.get(name)
        if view is None:
            raise CatalogError(f"no view named {name!r}")
        dependants = [
            v.name for v in self._views.values()
            if v.name != name and name in view_dependencies(v)
        ]
        if dependants:
            raise CatalogError(
                f"cannot drop view {name!r}: views depend on it: {dependants}"
            )
        del self._views[name]
        self.bump_generation()
        return view

    def view(self, name: str) -> ViewDefinition:
        name = name.lower()
        view = self._views.get(name)
        if view is None:
            raise CatalogError(f"no view named {name!r}")
        return view

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def views(self) -> List[ViewDefinition]:
        """All views, sorted by name."""
        return [self._views[k] for k in sorted(self._views)]

    # -- unified resolution ---------------------------------------------------

    def resolve(self, name: str) -> Union[Table, ViewDefinition]:
        """Table or view named *name*; CatalogError if neither exists."""
        name = name.lower()
        if self.has_table(name):
            return self.table(name)
        if name in self._views:
            return self._views[name]
        raise CatalogError(f"no table or view named {name!r}")

    def schema_of(self, name: str) -> TableSchema:
        """The schema of a table or view, uniformly."""
        entity = self.resolve(name)
        return entity.schema

    def _check_free(self, name: str) -> None:
        name = name.lower()
        if name in SYSTEM_TABLE_NAMES:
            raise CatalogError(f"{name!r} is a reserved system table name")
        if name in self._tables or name in self._views:
            raise CatalogError(f"name {name!r} is already in use")

    # -- system relations -------------------------------------------------

    def register_system_source(self, name: str, builder: Callable[[], Table]) -> None:
        """Bind *builder* as the synthesiser for reserved system table *name*.

        Only names in :data:`SYSTEM_TABLE_NAMES` may be bound; the four
        catalog relations have built-in builders and cannot be overridden.
        """
        name = name.lower()
        if name not in SYSTEM_TABLE_NAMES:
            raise CatalogError(f"{name!r} is not a reserved system table name")
        if name in ("_tables", "_columns", "_views", "_indexes"):
            raise CatalogError(f"catalog relation {name!r} cannot be overridden")
        self._system_sources[name] = builder

    def _system_table(self, name: str) -> Table:
        builders = {
            "_tables": self._build_sys_tables,
            "_columns": self._build_sys_columns,
            "_views": self._build_sys_views,
            "_indexes": self._build_sys_indexes,
        }
        builtin = builders.get(name)
        if builtin is not None:
            return builtin()
        source = self._system_sources.get(name)
        if source is not None:
            return source()
        # A telemetry relation on a catalog with no attached database:
        # serve the declared schema with zero rows.
        from repro.obs.systables import empty_system_table

        return empty_system_table(name)

    def _fresh(self, schema: TableSchema, rows: Iterator) -> Table:
        table = Table(schema, HeapFile(MemoryPager()))
        for row in rows:
            table.insert(row)
        return table

    def _build_sys_tables(self) -> Table:
        schema = TableSchema(
            "_tables",
            [
                Column("name", ColumnType.TEXT, nullable=False),
                Column("kind", ColumnType.TEXT, nullable=False),
                Column("arity", ColumnType.INT, nullable=False),
                Column("row_count", ColumnType.INT),
            ],
        )
        def rows():
            for table in self.tables():
                yield (table.name, "table", table.schema.arity, table.count())
            for view in self.views():
                yield (view.name, "view", view.schema.arity, None)
        return self._fresh(schema, rows())

    def _build_sys_columns(self) -> Table:
        schema = TableSchema(
            "_columns",
            [
                Column("table_name", ColumnType.TEXT, nullable=False),
                Column("position", ColumnType.INT, nullable=False),
                Column("name", ColumnType.TEXT, nullable=False),
                Column("type", ColumnType.TEXT, nullable=False),
                Column("nullable", ColumnType.BOOL, nullable=False),
                Column("in_primary_key", ColumnType.BOOL, nullable=False),
            ],
        )
        def rows():
            for entity in list(self.tables()) + list(self.views()):
                entity_schema = entity.schema
                for pos, col in enumerate(entity_schema.columns):
                    yield (
                        entity_schema.name if entity_schema.name else entity.name,
                        pos,
                        col.name,
                        str(col.ctype),
                        col.nullable,
                        col.name in entity_schema.primary_key,
                    )
        return self._fresh(schema, rows())

    def _build_sys_views(self) -> Table:
        schema = TableSchema(
            "_views",
            [
                Column("name", ColumnType.TEXT, nullable=False),
                Column("check_option", ColumnType.BOOL, nullable=False),
                Column("definition", ColumnType.TEXT),
            ],
        )
        def rows():
            for view in self.views():
                yield (view.name, view.check_option, view.sql_text or None)
        return self._fresh(schema, rows())

    def _build_sys_indexes(self) -> Table:
        schema = TableSchema(
            "_indexes",
            [
                Column("name", ColumnType.TEXT, nullable=False),
                Column("table_name", ColumnType.TEXT, nullable=False),
                Column("columns", ColumnType.TEXT, nullable=False),
                Column("unique_flag", ColumnType.BOOL, nullable=False),
                Column("kind", ColumnType.TEXT, nullable=False),
                Column("entries", ColumnType.INT, nullable=False),
            ],
        )
        def rows():
            for table in self.tables():
                for index in table.indexes.values():
                    yield (
                        index.name,
                        table.name,
                        ",".join(index.columns),
                        index.unique,
                        "btree" if index.ordered else "hash",
                        len(index),
                    )
        return self._fresh(schema, rows())


def view_dependencies(view: ViewDefinition) -> List[str]:
    """Names of tables/views a view reads, its subqueries included."""
    from repro.sql.sources import statement_sources

    return statement_sources(view.query)
