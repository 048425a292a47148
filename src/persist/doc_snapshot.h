#ifndef LLL_PERSIST_DOC_SNAPSHOT_H_
#define LLL_PERSIST_DOC_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/metrics.h"
#include "core/result.h"
#include "xml/node.h"

namespace lll::persist {

// Binary document snapshots (*.llld): the SoA arena image produced by
// xml::ExportDocumentStorage -- kind/name/value arrays, concatenated child
// and attribute pools, value bytes -- plus a LOCAL name table (the NameTable
// remap section: process-wide interned ids are not stable across processes,
// so names travel as strings and are re-interned on load). Loading reads
// the file whole through the shared artifact container, validates the image
// structurally (every failure is kInvalidArgument), and rebuilds the arena
// without parsing any XML; the loaded document serializes byte-identically
// to the saved one and starts with a fresh order index (keys 1..n, written
// by the loader).

// The snapshot artifact image. `doc_name` is the server's document name,
// embedded so a state directory can be reloaded without a side index.
std::string SerializeDocumentSnapshot(const xml::Document& doc,
                                      std::string_view doc_name);

// Writes the snapshot atomically. Bumps persist.snapshot.stores when
// `metrics` is given.
Status SaveDocumentSnapshot(const xml::Document& doc,
                            std::string_view doc_name,
                            const std::string& path,
                            MetricsRegistry* metrics = nullptr);

struct LoadedSnapshot {
  std::string doc_name;
  std::unique_ptr<xml::Document> document;
};

// Metrics when given: persist.snapshot.loads on success;
// persist.snapshot.version_mismatch on a format-version reject;
// persist.snapshot.load_failures on any other reject.
Result<LoadedSnapshot> LoadDocumentSnapshot(const std::string& path,
                                            MetricsRegistry* metrics = nullptr);
Result<LoadedSnapshot> LoadDocumentSnapshotFromBytes(
    std::string bytes, MetricsRegistry* metrics = nullptr);

}  // namespace lll::persist

#endif  // LLL_PERSIST_DOC_SNAPSHOT_H_
