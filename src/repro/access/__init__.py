"""Access layer: records, slotted pages, heap files, indexes, operators.

The paper's *Access Services* layer: "manage[s] physical data
representations of data records and access path structure, such as
B-trees ... also responsible for higher level operations, such as joins,
selections, and sorting of record sets."
"""

from repro.access.btree import BPlusTree
from repro.access.hash_index import ExtendibleHashIndex
from repro.access.heap_file import RID, HeapFile
from repro.access.keycodec import (
    decode_key,
    encode_component,
    encode_key,
    sql_key,
)
from repro.access.operators import (
    Aggregate,
    Distinct,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Operator,
    Project,
    Select,
    Sort,
    Source,
)
from repro.access.record import ColumnType, RecordCodec
from repro.access.slotted_page import SlottedPage

__all__ = [
    "BPlusTree",
    "ExtendibleHashIndex",
    "RID",
    "HeapFile",
    "decode_key",
    "encode_component",
    "encode_key",
    "sql_key",
    "Aggregate",
    "Distinct",
    "HashJoin",
    "Limit",
    "MergeJoin",
    "NestedLoopJoin",
    "Operator",
    "Project",
    "Select",
    "Sort",
    "Source",
    "ColumnType",
    "RecordCodec",
    "SlottedPage",
]
