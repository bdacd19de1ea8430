#include "src/persist/serializer.h"

#include <cstring>
#include <map>
#include <vector>

#include "src/exec/device_program.h"
#include "src/ir/verifier.h"
#include "src/spmd/collectives.h"

namespace partir {
namespace persist {

void ByteWriter::WriteU32(uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void ByteWriter::WriteU64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void ByteWriter::WriteF64(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double is not 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteStr(const std::string& value) {
  WriteU64(value.size());
  out_.append(value);
}

bool ByteReader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (bytes_.size() - pos_ < n) {
    status_ = DataLossError("truncated payload: need ", n, " bytes at offset ",
                            pos_, ", have ", bytes_.size() - pos_);
    return false;
  }
  return true;
}

uint8_t ByteReader::ReadU8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint32_t ByteReader::ReadU32() {
  if (!Need(4)) return 0;
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_++]))
             << (8 * i);
  }
  return value;
}

uint64_t ByteReader::ReadU64() {
  if (!Need(8)) return 0;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_++]))
             << (8 * i);
  }
  return value;
}

double ByteReader::ReadF64() {
  uint64_t bits = ReadU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string ByteReader::ReadStr() {
  uint64_t size = ReadU64();
  if (!status_.ok()) return std::string();
  if (!Need(size)) return std::string();
  std::string value = bytes_.substr(pos_, size);
  pos_ += size;
  return value;
}

void ByteReader::Corrupt(const std::string& reason) {
  if (status_.ok()) {
    status_ = DataLossError("corrupt payload at offset ", pos_, ": ", reason);
  }
}

namespace {

constexpr uint32_t kMaxOpKind = static_cast<uint32_t>(OpKind::kAllToAll);
constexpr uint32_t kMaxDType = static_cast<uint32_t>(DType::kPred);

/** Reads a count that prefixes a sequence of items of >= 1 byte each; a
 *  forged huge count cannot force a huge allocation. */
uint64_t ReadCount(ByteReader& reader, const char* what) {
  uint64_t count = reader.ReadU64();
  if (reader.ok() && count > reader.remaining()) {
    reader.Corrupt(StrCat(what, " count ", count, " exceeds remaining bytes"));
    return 0;
  }
  return count;
}

// ---- Types ----

void WriteType(ByteWriter& writer, const Type& type) {
  if (type.IsTensor()) {
    const TensorType& tensor = type.tensor();
    writer.WriteU8(0);
    writer.WriteU8(static_cast<uint8_t>(tensor.dtype()));
    writer.WriteU64(tensor.dims().size());
    for (int64_t dim : tensor.dims()) writer.WriteI64(dim);
  } else {
    const RangeType& range = type.range();
    writer.WriteU8(1);
    writer.WriteI64(range.size());
    writer.WriteStr(range.axis());
  }
}

Type ReadType(ByteReader& reader) {
  uint8_t tag = reader.ReadU8();
  if (tag == 0) {
    uint8_t dtype = reader.ReadU8();
    if (reader.ok() && dtype > kMaxDType) {
      reader.Corrupt(StrCat("bad dtype tag ", dtype));
      return Type();
    }
    uint64_t rank = ReadCount(reader, "tensor dim");
    std::vector<int64_t> dims;
    dims.reserve(rank);
    // Every prefix product of the dims, times the widest dtype's 4 bytes,
    // must fit in int64_t, so NumElements and ByteSize cannot overflow.
    int64_t bytes = 4;
    for (uint64_t i = 0; i < rank && reader.ok(); ++i) {
      int64_t dim = reader.ReadI64();
      if (dim < 0 || __builtin_mul_overflow(bytes, dim, &bytes)) {
        reader.Corrupt(StrCat("tensor dim ", dim,
                              " is negative or overflows the byte size"));
        return Type();
      }
      dims.push_back(dim);
    }
    if (!reader.ok()) return Type();
    return Type(TensorType(std::move(dims), static_cast<DType>(dtype)));
  }
  if (tag == 1) {
    int64_t size = reader.ReadI64();
    std::string axis = reader.ReadStr();
    return Type(RangeType(size, std::move(axis)));
  }
  reader.Corrupt(StrCat("bad type tag ", tag));
  return Type();
}

// ---- Attributes ----

void WriteAttr(ByteWriter& writer, const Attr& attr) {
  writer.WriteU8(static_cast<uint8_t>(attr.index()));
  if (const auto* i = std::get_if<int64_t>(&attr)) {
    writer.WriteI64(*i);
  } else if (const auto* d = std::get_if<double>(&attr)) {
    writer.WriteF64(*d);
  } else if (const auto* s = std::get_if<std::string>(&attr)) {
    writer.WriteStr(*s);
  } else if (const auto* ints = std::get_if<std::vector<int64_t>>(&attr)) {
    writer.WriteU64(ints->size());
    for (int64_t v : *ints) writer.WriteI64(v);
  } else if (const auto* strs = std::get_if<std::vector<std::string>>(&attr)) {
    writer.WriteU64(strs->size());
    for (const std::string& v : *strs) writer.WriteStr(v);
  } else if (const auto* axes = std::get_if<AxesPerDim>(&attr)) {
    writer.WriteU64(axes->size());
    for (const auto& list : *axes) {
      writer.WriteU64(list.size());
      for (const std::string& v : list) writer.WriteStr(v);
    }
  } else if (const auto* floats = std::get_if<std::vector<float>>(&attr)) {
    writer.WriteU64(floats->size());
    for (float v : *floats) writer.WriteF64(static_cast<double>(v));
  } else {
    PARTIR_UNREACHABLE("unserialized attribute variant");
  }
}

Attr ReadAttr(ByteReader& reader) {
  uint8_t tag = reader.ReadU8();
  switch (tag) {
    case 0:
      return Attr(reader.ReadI64());
    case 1:
      return Attr(reader.ReadF64());
    case 2:
      return Attr(reader.ReadStr());
    case 3: {
      uint64_t count = ReadCount(reader, "int list");
      std::vector<int64_t> values;
      values.reserve(count);
      for (uint64_t i = 0; i < count && reader.ok(); ++i) {
        values.push_back(reader.ReadI64());
      }
      return Attr(std::move(values));
    }
    case 4: {
      uint64_t count = ReadCount(reader, "string list");
      std::vector<std::string> values;
      values.reserve(count);
      for (uint64_t i = 0; i < count && reader.ok(); ++i) {
        values.push_back(reader.ReadStr());
      }
      return Attr(std::move(values));
    }
    case 5: {
      uint64_t dims = ReadCount(reader, "axes-per-dim");
      AxesPerDim axes;
      axes.reserve(dims);
      for (uint64_t i = 0; i < dims && reader.ok(); ++i) {
        uint64_t count = ReadCount(reader, "axis list");
        std::vector<std::string> list;
        list.reserve(count);
        for (uint64_t j = 0; j < count && reader.ok(); ++j) {
          list.push_back(reader.ReadStr());
        }
        axes.push_back(std::move(list));
      }
      return Attr(std::move(axes));
    }
    case 6: {
      uint64_t count = ReadCount(reader, "float list");
      std::vector<float> values;
      values.reserve(count);
      for (uint64_t i = 0; i < count && reader.ok(); ++i) {
        values.push_back(static_cast<float>(reader.ReadF64()));
      }
      return Attr(std::move(values));
    }
    default:
      reader.Corrupt(StrCat("bad attribute tag ", tag));
      return Attr(int64_t{0});
  }
}

// ---- Blocks / functions / modules ----

/** Serializes blocks assigning dense value ids in definition order —
 *  arguments first, then per op: operands (as ids), attributes, results
 *  (assigning their ids), then nested regions. The deserializer replays
 *  the identical traversal. */
class ModuleSerializer {
 public:
  explicit ModuleSerializer(ByteWriter& writer) : writer_(writer) {}

  void WriteModule(const Module& module) {
    writer_.WriteU64(module.funcs().size());
    for (const auto& func : module.funcs()) WriteFunc(*func);
  }

 private:
  void WriteFunc(const Func& func) {
    writer_.WriteStr(func.name());
    WriteBlock(func.body());
  }

  void WriteBlock(const Block& block) {
    writer_.WriteU64(block.args().size());
    for (const auto& arg : block.args()) {
      ids_[arg.get()] = next_id_++;
      writer_.WriteStr(arg->name());
      WriteType(writer_, arg->type());
    }
    writer_.WriteU64(block.ops().size());
    for (const auto& op : block.ops()) {
      writer_.WriteU32(static_cast<uint32_t>(op->kind()));
      writer_.WriteU64(op->operands().size());
      for (const Value* operand : op->operands()) {
        auto it = ids_.find(operand);
        PARTIR_CHECK(it != ids_.end())
            << "operand does not dominate its use (unverified module?)";
        writer_.WriteU64(it->second);
      }
      writer_.WriteU64(op->attrs().raw().size());
      for (const auto& [name, attr] : op->attrs().raw()) {
        writer_.WriteStr(name);
        WriteAttr(writer_, attr);
      }
      writer_.WriteU64(op->num_results());
      for (int i = 0; i < op->num_results(); ++i) {
        ids_[op->result(i)] = next_id_++;
        writer_.WriteStr(op->result(i)->name());
        WriteType(writer_, op->result(i)->type());
      }
      writer_.WriteU64(op->num_regions());
      for (int i = 0; i < op->num_regions(); ++i) {
        WriteBlock(op->region(i).block());
      }
    }
  }

  ByteWriter& writer_;
  std::map<const Value*, uint64_t> ids_;
  uint64_t next_id_ = 0;
};

class ModuleDeserializer {
 public:
  explicit ModuleDeserializer(ByteReader& reader) : reader_(reader) {}

  std::unique_ptr<Module> ReadModule() {
    auto module = std::make_unique<Module>();
    uint64_t num_funcs = ReadCount(reader_, "function");
    for (uint64_t i = 0; i < num_funcs && reader_.ok(); ++i) {
      ReadFunc(*module);
    }
    if (!reader_.ok()) return nullptr;
    return module;
  }

 private:
  void ReadFunc(Module& module) {
    std::string name = reader_.ReadStr();
    if (!reader_.ok()) return;
    Func* func = module.AddFunc(std::move(name));
    ReadBlock(func->body());
  }

  void ReadBlock(Block& block) {
    uint64_t num_args = ReadCount(reader_, "block argument");
    for (uint64_t i = 0; i < num_args && reader_.ok(); ++i) {
      std::string name = reader_.ReadStr();
      Type type = ReadType(reader_);
      if (!reader_.ok()) return;
      values_.push_back(block.AddArg(std::move(type), std::move(name)));
    }
    uint64_t num_ops = ReadCount(reader_, "operation");
    for (uint64_t i = 0; i < num_ops && reader_.ok(); ++i) {
      ReadOp(block);
    }
  }

  void ReadOp(Block& block) {
    uint32_t kind = reader_.ReadU32();
    if (reader_.ok() && kind > kMaxOpKind) {
      reader_.Corrupt(StrCat("bad op kind ", kind));
      return;
    }
    uint64_t num_operands = ReadCount(reader_, "operand");
    std::vector<Value*> operands;
    operands.reserve(num_operands);
    for (uint64_t i = 0; i < num_operands && reader_.ok(); ++i) {
      uint64_t id = reader_.ReadU64();
      if (reader_.ok() && id >= values_.size()) {
        reader_.Corrupt(StrCat("operand id ", id, " not yet defined"));
        return;
      }
      if (reader_.ok()) operands.push_back(values_[id]);
    }
    uint64_t num_attrs = ReadCount(reader_, "attribute");
    AttrMap attrs;
    for (uint64_t i = 0; i < num_attrs && reader_.ok(); ++i) {
      std::string name = reader_.ReadStr();
      Attr attr = ReadAttr(reader_);
      if (reader_.ok()) attrs.Set(name, std::move(attr));
    }
    uint64_t num_results = ReadCount(reader_, "result");
    std::vector<std::string> result_names;
    std::vector<Type> result_types;
    result_names.reserve(num_results);
    result_types.reserve(num_results);
    for (uint64_t i = 0; i < num_results && reader_.ok(); ++i) {
      result_names.push_back(reader_.ReadStr());
      result_types.push_back(ReadType(reader_));
    }
    uint64_t num_regions = ReadCount(reader_, "region");
    if (!reader_.ok()) return;

    auto owned = std::make_unique<Operation>(
        static_cast<OpKind>(kind), std::move(operands),
        std::move(result_types));
    owned->attrs() = std::move(attrs);
    Operation* op = block.Append(std::move(owned));
    for (int i = 0; i < op->num_results(); ++i) {
      op->result(i)->set_name(std::move(result_names[i]));
      values_.push_back(op->result(i));
    }
    for (uint64_t i = 0; i < num_regions && reader_.ok(); ++i) {
      ReadBlock(op->AddRegion().block());
    }
  }

  ByteReader& reader_;
  std::vector<Value*> values_;
};

// ---- Small aggregates ----

void WriteMesh(ByteWriter& writer, const Mesh& mesh) {
  writer.WriteU64(mesh.axes().size());
  for (const MeshAxis& axis : mesh.axes()) {
    writer.WriteStr(axis.name);
    writer.WriteI64(axis.size);
  }
}

Mesh ReadMesh(ByteReader& reader) {
  uint64_t num_axes = ReadCount(reader, "mesh axis");
  std::vector<MeshAxis> axes;
  axes.reserve(num_axes);
  int64_t devices = 1;
  for (uint64_t i = 0; i < num_axes && reader.ok(); ++i) {
    std::string name = reader.ReadStr();
    int64_t size = reader.ReadI64();
    if (reader.ok() &&
        (size < 1 || __builtin_mul_overflow(devices, size, &devices))) {
      reader.Corrupt(StrCat("mesh axis '", name, "' has size ", size,
                            ", or overflows the device count"));
      return Mesh();
    }
    axes.push_back(MeshAxis{std::move(name), size});
  }
  if (!reader.ok()) return Mesh();
  return Mesh(std::move(axes));
}

void WriteAxesPerDim(ByteWriter& writer, const AxesPerDim& axes) {
  writer.WriteU64(axes.size());
  for (const auto& list : axes) {
    writer.WriteU64(list.size());
    for (const std::string& axis : list) writer.WriteStr(axis);
  }
}

AxesPerDim ReadAxesPerDim(ByteReader& reader) {
  uint64_t dims = ReadCount(reader, "sharding dim");
  AxesPerDim axes;
  axes.reserve(dims);
  for (uint64_t i = 0; i < dims && reader.ok(); ++i) {
    uint64_t count = ReadCount(reader, "sharding axis");
    std::vector<std::string> list;
    list.reserve(count);
    for (uint64_t j = 0; j < count && reader.ok(); ++j) {
      list.push_back(reader.ReadStr());
    }
    axes.push_back(std::move(list));
  }
  return axes;
}

void WriteCollectiveStats(ByteWriter& writer, const CollectiveStats& stats) {
  writer.WriteI64(stats.all_gather);
  writer.WriteI64(stats.all_reduce);
  writer.WriteI64(stats.reduce_scatter);
  writer.WriteI64(stats.all_to_all);
  writer.WriteI64(stats.all_slice);
  writer.WriteF64(stats.comm_bytes);
}

CollectiveStats ReadCollectiveStats(ByteReader& reader) {
  CollectiveStats stats;
  stats.all_gather = reader.ReadI64();
  stats.all_reduce = reader.ReadI64();
  stats.reduce_scatter = reader.ReadI64();
  stats.all_to_all = reader.ReadI64();
  stats.all_slice = reader.ReadI64();
  stats.comm_bytes = reader.ReadF64();
  return stats;
}

void WriteEstimate(ByteWriter& writer, const SimEstimate& estimate) {
  writer.WriteF64(estimate.compute_seconds);
  writer.WriteF64(estimate.comm_seconds);
  writer.WriteF64(estimate.step_seconds);
  writer.WriteF64(estimate.peak_memory_bytes);
  writer.WriteF64(estimate.total_flops);
  writer.WriteF64(estimate.comm_bytes);
}

SimEstimate ReadEstimate(ByteReader& reader) {
  SimEstimate estimate;
  estimate.compute_seconds = reader.ReadF64();
  estimate.comm_seconds = reader.ReadF64();
  estimate.step_seconds = reader.ReadF64();
  estimate.peak_memory_bytes = reader.ReadF64();
  estimate.total_flops = reader.ReadF64();
  estimate.comm_bytes = reader.ReadF64();
  return estimate;
}

}  // namespace

std::string SerializeModule(const Module& module) {
  ByteWriter writer;
  ModuleSerializer(writer).WriteModule(module);
  return writer.TakeBytes();
}

StatusOr<std::unique_ptr<Module>> DeserializeModule(
    const std::string& bytes) {
  ByteReader reader(bytes);
  std::unique_ptr<Module> module = ModuleDeserializer(reader).ReadModule();
  if (!reader.ok()) return reader.status();
  if (reader.remaining() != 0) {
    return DataLossError("trailing garbage: ", reader.remaining(),
                         " bytes after module payload");
  }
  return module;
}

std::string SerializePartitionResult(const PartitionResult& result) {
  ByteWriter writer;

  // SPMD module with mesh, shardings and the compiled-program flag.
  ModuleSerializer(writer).WriteModule(*result.spmd.module);
  WriteMesh(writer, result.spmd.mesh);
  writer.WriteU64(result.spmd.input_shardings.size());
  for (const ValueSharding& sharding : result.spmd.input_shardings) {
    WriteAxesPerDim(writer, sharding.axes);
  }
  writer.WriteU64(result.spmd.output_shardings.size());
  for (const ValueSharding& sharding : result.spmd.output_shardings) {
    WriteAxesPerDim(writer, sharding.axes);
  }
  writer.WriteU8(result.spmd.exec_program != nullptr ? 1 : 0);

  WriteCollectiveStats(writer, result.collectives);
  WriteEstimate(writer, result.estimate);

  writer.WriteU64(result.tactics.size());
  for (const TacticReport& report : result.tactics) {
    writer.WriteStr(report.name);
    writer.WriteI64(report.actions_applied);
    writer.WriteI64(report.conflicts);
    writer.WriteF64(report.tactic_seconds);
    writer.WriteI64(report.evaluations);
    writer.WriteF64(report.search_seconds);
  }

  writer.WriteF64(result.partition_seconds);

  // Conflicts: the op pointer is process-local; axis and reason survive.
  writer.WriteU64(result.conflicts.size());
  for (const Conflict& conflict : result.conflicts) {
    writer.WriteStr(conflict.axis);
    writer.WriteStr(conflict.reason);
  }

  const PipelineStats& pipeline = result.pipeline;
  writer.WriteU64(pipeline.passes.size());
  for (const PassStats& pass : pipeline.passes) {
    writer.WriteStr(pass.name);
    writer.WriteF64(pass.seconds);
    writer.WriteI64(pass.runs);
    writer.WriteI64(pass.changes);
    writer.WriteI64(pass.ops_before);
    writer.WriteI64(pass.ops_after);
    writer.WriteU8(pass.lowered ? 1 : 0);
    WriteCollectiveStats(writer, pass.collectives);
  }
  writer.WriteF64(pipeline.verify_seconds);
  writer.WriteI64(pipeline.verify_runs);
  writer.WriteF64(pipeline.total_seconds);

  // Static-analysis results.
  writer.WriteI64(pipeline.analysis_checkers);
  writer.WriteI64(pipeline.analysis_errors);
  writer.WriteI64(pipeline.analysis_warnings);
  writer.WriteU64(result.analysis.diagnostics.size());
  for (const analysis::Diagnostic& diag : result.analysis.diagnostics) {
    writer.WriteU8(static_cast<uint8_t>(diag.severity));
    writer.WriteStr(diag.checker_id);
    writer.WriteStr(diag.location);
    writer.WriteStr(diag.message);
    writer.WriteU64(diag.notes.size());
    for (const std::string& note : diag.notes) writer.WriteStr(note);
  }
  writer.WriteU64(result.analysis.checkers_run.size());
  for (const std::string& checker : result.analysis.checkers_run) {
    writer.WriteStr(checker);
  }

  return writer.TakeBytes();
}

StatusOr<PartitionResult> DeserializePartitionResult(
    const std::string& bytes) {
  ByteReader reader(bytes);
  PartitionResult result;

  result.spmd.module = ModuleDeserializer(reader).ReadModule();
  if (reader.ok() && result.spmd.module->funcs().empty()) {
    reader.Corrupt("SPMD module has no functions");
  }
  result.spmd.mesh = ReadMesh(reader);
  uint64_t num_inputs = ReadCount(reader, "input sharding");
  for (uint64_t i = 0; i < num_inputs && reader.ok(); ++i) {
    result.spmd.input_shardings.push_back(
        ValueSharding{ReadAxesPerDim(reader)});
  }
  uint64_t num_outputs = ReadCount(reader, "output sharding");
  for (uint64_t i = 0; i < num_outputs && reader.ok(); ++i) {
    result.spmd.output_shardings.push_back(
        ValueSharding{ReadAxesPerDim(reader)});
  }
  bool had_exec_program = reader.ReadU8() != 0;

  result.collectives = ReadCollectiveStats(reader);
  result.estimate = ReadEstimate(reader);

  uint64_t num_tactics = ReadCount(reader, "tactic report");
  for (uint64_t i = 0; i < num_tactics && reader.ok(); ++i) {
    TacticReport report;
    report.name = reader.ReadStr();
    report.actions_applied = static_cast<int>(reader.ReadI64());
    report.conflicts = static_cast<int>(reader.ReadI64());
    report.tactic_seconds = reader.ReadF64();
    report.evaluations = static_cast<int>(reader.ReadI64());
    report.search_seconds = reader.ReadF64();
    result.tactics.push_back(std::move(report));
  }

  result.partition_seconds = reader.ReadF64();

  uint64_t num_conflicts = ReadCount(reader, "conflict");
  for (uint64_t i = 0; i < num_conflicts && reader.ok(); ++i) {
    Conflict conflict;
    conflict.op = nullptr;  // process-local pointer; not restorable
    conflict.axis = reader.ReadStr();
    conflict.reason = reader.ReadStr();
    result.conflicts.push_back(std::move(conflict));
  }

  uint64_t num_passes = ReadCount(reader, "pass stats");
  for (uint64_t i = 0; i < num_passes && reader.ok(); ++i) {
    PassStats pass;
    pass.name = reader.ReadStr();
    pass.seconds = reader.ReadF64();
    pass.runs = reader.ReadI64();
    pass.changes = reader.ReadI64();
    pass.ops_before = reader.ReadI64();
    pass.ops_after = reader.ReadI64();
    pass.lowered = reader.ReadU8() != 0;
    pass.collectives = ReadCollectiveStats(reader);
    result.pipeline.passes.push_back(std::move(pass));
  }
  result.pipeline.verify_seconds = reader.ReadF64();
  result.pipeline.verify_runs = reader.ReadI64();
  result.pipeline.total_seconds = reader.ReadF64();

  // Static-analysis results.
  result.pipeline.analysis_checkers = reader.ReadI64();
  result.pipeline.analysis_errors = reader.ReadI64();
  result.pipeline.analysis_warnings = reader.ReadI64();
  uint64_t num_diags = ReadCount(reader, "diagnostic");
  constexpr uint8_t kMaxSeverity =
      static_cast<uint8_t>(analysis::Severity::kNote);
  for (uint64_t i = 0; i < num_diags && reader.ok(); ++i) {
    analysis::Diagnostic diag;
    uint8_t severity = reader.ReadU8();
    if (reader.ok() && severity > kMaxSeverity) {
      reader.Corrupt(StrCat("bad severity tag ", severity));
      break;
    }
    diag.severity = static_cast<analysis::Severity>(severity);
    diag.checker_id = reader.ReadStr();
    diag.location = reader.ReadStr();
    diag.message = reader.ReadStr();
    uint64_t num_notes = ReadCount(reader, "diagnostic note");
    for (uint64_t j = 0; j < num_notes && reader.ok(); ++j) {
      diag.notes.push_back(reader.ReadStr());
    }
    if (reader.ok()) result.analysis.diagnostics.push_back(std::move(diag));
  }
  uint64_t num_checkers = ReadCount(reader, "checker id");
  for (uint64_t i = 0; i < num_checkers && reader.ok(); ++i) {
    result.analysis.checkers_run.push_back(reader.ReadStr());
  }

  if (!reader.ok()) return reader.status();
  if (reader.remaining() != 0) {
    return DataLossError("trailing garbage: ", reader.remaining(),
                         " bytes after result payload");
  }

  // A checksummed payload can still carry crafted IR: verify it and its
  // shardings over its mesh before anything reads its attributes, sizes
  // its collectives or shards an input.
  std::vector<std::string> diags =
      Verify(*result.spmd.module, &result.spmd.mesh);
  if (diags.empty()) {
    VerifyShardings(result.spmd, [&](const std::string& where,
                                     const std::string& message) {
      diags.push_back(StrCat(where, ": ", message));
    });
  }
  if (!diags.empty()) {
    return DataLossError("saved SPMD module does not verify: ",
                         diags.front());
  }

  // Rebuild the process-local derived state the pipeline's last passes
  // normally produce: the precomputed collective plan always, the compiled
  // device program when the saved result carried one (best-effort — a null
  // program always falls back to ad-hoc compilation at Run).
  result.spmd.plan =
      BuildCollectivePlan(result.spmd.mesh, *result.spmd.module);
  if (had_exec_program) {
    StatusOr<std::shared_ptr<const exec::DeviceProgram>> program =
        exec::CompileDeviceProgram(result.spmd);
    if (program.ok()) result.spmd.exec_program = std::move(program).value();
  }
  return result;
}

}  // namespace persist
}  // namespace partir
