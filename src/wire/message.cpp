#include "wire/message.h"

#include <array>
#include <type_traits>

namespace falkon::wire {
namespace {

void encode_string_vector(Writer& w, const std::vector<std::string>& v) {
  w.put_varint(v.size());
  for (const auto& s : v) w.put_string(s);
}

std::vector<std::string> decode_string_vector(Reader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) throw CodecError("vector length exceeds buffer");
  std::vector<std::string> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.get_string());
  return v;
}

void encode_env(Writer& w, const std::map<std::string, std::string>& env) {
  w.put_varint(env.size());
  for (const auto& [key, value] : env) {
    w.put_string(key);
    w.put_string(value);
  }
}

std::map<std::string, std::string> decode_env(Reader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) throw CodecError("map length exceeds buffer");
  std::map<std::string, std::string> env;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.get_string();
    env[std::move(key)] = r.get_string();
  }
  return env;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kError: return "Error";
    case MsgType::kCreateInstanceRequest: return "CreateInstanceRequest";
    case MsgType::kCreateInstanceReply: return "CreateInstanceReply";
    case MsgType::kDestroyInstanceRequest: return "DestroyInstanceRequest";
    case MsgType::kDestroyInstanceReply: return "DestroyInstanceReply";
    case MsgType::kSubmitRequest: return "SubmitRequest";
    case MsgType::kSubmitReply: return "SubmitReply";
    case MsgType::kRegisterRequest: return "RegisterRequest";
    case MsgType::kRegisterReply: return "RegisterReply";
    case MsgType::kNotify: return "Notify";
    case MsgType::kGetWorkRequest: return "GetWorkRequest";
    case MsgType::kGetWorkReply: return "GetWorkReply";
    case MsgType::kStatusRequest: return "StatusRequest";
    case MsgType::kStatusReply: return "StatusReply";
    case MsgType::kDeregisterRequest: return "DeregisterRequest";
    case MsgType::kDeregisterReply: return "DeregisterReply";
    case MsgType::kWaitResultsRequest: return "WaitResultsRequest";
    case MsgType::kWaitResultsReply: return "WaitResultsReply";
    case MsgType::kClientNotify: return "ClientNotify";
    case MsgType::kHeartbeatRequest: return "HeartbeatRequest";
    case MsgType::kHeartbeatReply: return "HeartbeatReply";
    case MsgType::kTaskBundle: return "TaskBundle";
    case MsgType::kResultBundle: return "ResultBundle";
    case MsgType::kReplFetch: return "ReplFetch";
    case MsgType::kReplAppend: return "ReplAppend";
    case MsgType::kReplSnapshot: return "ReplSnapshot";
    case MsgType::kReplAck: return "ReplAck";
    case MsgType::kReplAckReply: return "ReplAckReply";
    case MsgType::kElectionPing: return "ElectionPing";
    case MsgType::kElectionAck: return "ElectionAck";
    case MsgType::kCacheDigest: return "CacheDigest";
    case MsgType::kDataFetch: return "DataFetch";
    case MsgType::kDataFetchReply: return "DataFetchReply";
    case MsgType::kDataEvict: return "DataEvict";
    case MsgType::kSubscribeResults: return "SubscribeResults";
    case MsgType::kResultStream: return "ResultStream";
  }
  return "Unknown";
}

std::uint32_t crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

DataFetchReply make_data_fetch_reply(std::string object,
                                     std::uint64_t object_bytes,
                                     std::string payload) {
  DataFetchReply reply;
  reply.object = std::move(object);
  reply.object_bytes = object_bytes;
  reply.crc = crc32(payload.data(), payload.size());
  reply.payload = std::move(payload);
  return reply;
}

std::string debug_summary(const Message& message) {
  std::string out = msg_type_name(message_type(message));
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ErrorReply>) {
          out += "{" + m.message + "}";
        } else if constexpr (std::is_same_v<T, SubmitRequest>) {
          out += "{instance=" + num(m.instance_id.value) +
                 ", tasks=" + num(m.tasks.size()) + "}";
        } else if constexpr (std::is_same_v<T, SubmitReply>) {
          out += "{accepted=" + num(m.accepted) + "}";
        } else if constexpr (std::is_same_v<T, RegisterRequest>) {
          out += "{node=" + num(m.node_id.value) + ", slots=" + num(m.slots) +
                 "}";
        } else if constexpr (std::is_same_v<T, RegisterReply>) {
          out += "{executor=" + num(m.executor_id.value) + "}";
        } else if constexpr (std::is_same_v<T, Notify>) {
          out += "{executor=" + num(m.executor_id.value) +
                 (m.resource_key == kReleaseResourceKey
                      ? std::string(", release")
                      : ", key=" + num(m.resource_key)) +
                 "}";
        } else if constexpr (std::is_same_v<T, GetWorkRequest>) {
          out += "{executor=" + num(m.executor_id.value) + ", max=" +
                 (m.max_tasks == kAdaptiveBundle ? std::string("adaptive")
                                                 : num(m.max_tasks)) +
                 "}";
        } else if constexpr (std::is_same_v<T, GetWorkReply>) {
          out += "{tasks=" + num(m.tasks.size()) + "}";
        } else if constexpr (std::is_same_v<T, StatusReply>) {
          out += "{submitted=" + num(m.submitted_tasks) +
                 ", queued=" + num(m.queued_tasks) +
                 ", dispatched=" + num(m.dispatched_tasks) +
                 ", completed=" + num(m.completed_tasks) +
                 ", failed=" + num(m.failed_tasks) +
                 ", executors=" + num(m.registered_executors) + "}";
        } else if constexpr (std::is_same_v<T, DeregisterRequest>) {
          out += "{executor=" + num(m.executor_id.value) + ", reason=" +
                 m.reason + "}";
        } else if constexpr (std::is_same_v<T, WaitResultsRequest>) {
          out += "{instance=" + num(m.instance_id.value) +
                 ", max=" + num(m.max_results) + "}";
        } else if constexpr (std::is_same_v<T, WaitResultsReply>) {
          out += "{results=" + num(m.results.size()) + "}";
        } else if constexpr (std::is_same_v<T, ClientNotify>) {
          out += "{instance=" + num(m.instance_id.value) +
                 ", completed=" + num(m.completed) + "}";
        } else if constexpr (std::is_same_v<T, HeartbeatRequest>) {
          out += "{executor=" + num(m.executor_id.value) + "}";
        } else if constexpr (std::is_same_v<T, TaskBundle>) {
          out += "{executor=" + num(m.executor_id.value) +
                 ", acked=" + num(m.acknowledged) +
                 ", tasks=" + num(m.tasks.size()) + "}";
        } else if constexpr (std::is_same_v<T, ResultBundle>) {
          out += "{executor=" + num(m.executor_id.value) +
                 ", results=" + num(m.results.size()) + ", want=" +
                 (m.want_tasks == kAdaptiveWant ? std::string("adaptive")
                                                : num(m.want_tasks)) +
                 "}";
        } else if constexpr (std::is_same_v<T, ReplFetch>) {
          out += "{from_lsn=" + num(m.from_lsn) +
                 ", max_bytes=" + num(m.max_bytes) +
                 ", epoch=" + num(m.epoch) + "}";
        } else if constexpr (std::is_same_v<T, ReplAppend>) {
          out += "{first_lsn=" + num(m.first_lsn) +
                 ", last_lsn=" + num(m.last_lsn) +
                 ", bytes=" + num(m.payload.size()) +
                 ", epoch=" + num(m.epoch) + "}";
        } else if constexpr (std::is_same_v<T, ReplSnapshot>) {
          out += "{lsn=" + num(m.lsn) + ", bytes=" + num(m.payload.size()) +
                 ", epoch=" + num(m.epoch) + "}";
        } else if constexpr (std::is_same_v<T, ReplAck>) {
          out += "{applied_lsn=" + num(m.applied_lsn) +
                 ", epoch=" + num(m.epoch) + "}";
        } else if constexpr (std::is_same_v<T, ElectionPing>) {
          out += "{epoch=" + num(m.epoch) + ", rank=" + num(m.rank) +
                 ", applied_lsn=" + num(m.applied_lsn) + "}";
        } else if constexpr (std::is_same_v<T, ElectionAck>) {
          out += "{epoch=" + num(m.epoch) + ", rank=" + num(m.rank) +
                 ", applied_lsn=" + num(m.applied_lsn) +
                 (m.promoted ? ", promoted" : "") + "}";
        } else if constexpr (std::is_same_v<T, CacheDigest>) {
          out += "{executor=" + num(m.executor_id.value) +
                 ", generation=" + num(m.generation) +
                 ", port=" + num(m.data_port) +
                 ", objects=" + num(m.objects.size()) + "}";
        } else if constexpr (std::is_same_v<T, DataFetch>) {
          out += "{object=" + m.object + "}";
        } else if constexpr (std::is_same_v<T, DataFetchReply>) {
          out += "{object=" + m.object +
                 ", object_bytes=" + num(m.object_bytes) +
                 ", payload=" + num(m.payload.size()) + "}";
        } else if constexpr (std::is_same_v<T, DataEvict>) {
          out += "{executor=" + num(m.executor_id.value) + ", object=" +
                 m.object + "}";
        } else if constexpr (std::is_same_v<T, SubscribeResults>) {
          out += "{instance=" + num(m.instance_id.value) +
                 ", ack_seq=" + num(m.ack_seq) + "}";
        } else if constexpr (std::is_same_v<T, ResultStream>) {
          out += "{instance=" + num(m.instance_id.value) +
                 ", seq=" + num(m.seq) +
                 ", results=" + num(m.results.size()) + "}";
        }
      },
      message);
  return out;
}

void encode_task_spec(Writer& w, const TaskSpec& spec) {
  w.put_u64(spec.id.value);
  w.put_string(spec.executable);
  encode_string_vector(w, spec.args);
  w.put_string(spec.working_dir);
  encode_env(w, spec.env);
  w.put_double(spec.estimated_runtime_s);
  w.put_u8(static_cast<std::uint8_t>(spec.data_location));
  w.put_u8(static_cast<std::uint8_t>(spec.io_mode));
  w.put_u64(spec.input_bytes);
  w.put_u64(spec.output_bytes);
  w.put_string(spec.data_object);
  w.put_bool(spec.capture_output);
  w.put_bool(spec.expect_cached);
  w.put_string(spec.data_source);
}

TaskSpec decode_task_spec(Reader& r) {
  TaskSpec spec;
  spec.id = TaskId{r.get_u64()};
  spec.executable = r.get_string();
  spec.args = decode_string_vector(r);
  spec.working_dir = r.get_string();
  spec.env = decode_env(r);
  spec.estimated_runtime_s = r.get_double();
  spec.data_location = static_cast<DataLocation>(r.get_u8());
  spec.io_mode = static_cast<IoMode>(r.get_u8());
  spec.input_bytes = r.get_u64();
  spec.output_bytes = r.get_u64();
  spec.data_object = r.get_string();
  spec.capture_output = r.get_bool();
  spec.expect_cached = r.get_bool();
  spec.data_source = r.get_string();
  return spec;
}

void encode_task_result(Writer& w, const TaskResult& result) {
  w.put_u64(result.task_id.value);
  w.put_u64(result.executor_id.value);
  w.put_u32(static_cast<std::uint32_t>(result.exit_code));
  w.put_u8(static_cast<std::uint8_t>(result.state));
  w.put_string(result.stdout_data);
  w.put_string(result.stderr_data);
  w.put_double(result.queue_time_s);
  w.put_double(result.exec_time_s);
  w.put_double(result.overhead_s);
}

TaskResult decode_task_result(Reader& r) {
  TaskResult result;
  result.task_id = TaskId{r.get_u64()};
  result.executor_id = ExecutorId{r.get_u64()};
  result.exit_code = static_cast<int>(r.get_u32());
  result.state = static_cast<TaskState>(r.get_u8());
  result.stdout_data = r.get_string();
  result.stderr_data = r.get_string();
  result.queue_time_s = r.get_double();
  result.exec_time_s = r.get_double();
  result.overhead_s = r.get_double();
  return result;
}

namespace {

void encode_task_specs(Writer& w, const std::vector<TaskSpec>& specs) {
  w.put_varint(specs.size());
  for (const auto& spec : specs) encode_task_spec(w, spec);
}

std::vector<TaskSpec> decode_task_specs(Reader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) throw CodecError("spec vector exceeds buffer");
  std::vector<TaskSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) specs.push_back(decode_task_spec(r));
  return specs;
}

void encode_task_results(Writer& w, const std::vector<TaskResult>& results) {
  w.put_varint(results.size());
  for (const auto& result : results) encode_task_result(w, result);
}

std::vector<TaskResult> decode_task_results(Reader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) throw CodecError("result vector exceeds buffer");
  std::vector<TaskResult> results;
  results.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) results.push_back(decode_task_result(r));
  return results;
}

struct EncodeVisitor {
  Writer& w;

  void operator()(const ErrorReply& m) const {
    w.put_u8(static_cast<std::uint8_t>(m.code));
    w.put_string(m.message);
  }
  void operator()(const CreateInstanceRequest& m) const {
    w.put_u64(m.client_id.value);
  }
  void operator()(const CreateInstanceReply& m) const {
    w.put_u64(m.instance_id.value);
  }
  void operator()(const DestroyInstanceRequest& m) const {
    w.put_u64(m.instance_id.value);
  }
  void operator()(const DestroyInstanceReply&) const {}
  void operator()(const SubmitRequest& m) const {
    w.put_u64(m.instance_id.value);
    encode_task_specs(w, m.tasks);
    w.put_u64(m.submit_seq);
    w.put_u64(m.epoch);
  }
  void operator()(const SubmitReply& m) const {
    w.put_u64(m.accepted);
    w.put_u64(m.epoch);
  }
  void operator()(const RegisterRequest& m) const {
    w.put_u64(m.node_id.value);
    w.put_string(m.host);
    w.put_u32(m.slots);
    w.put_u64(m.allocation_id.value);
    w.put_u32(m.data_port);
    encode_string_vector(w, m.cached);
  }
  void operator()(const RegisterReply& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u64(m.epoch);
  }
  void operator()(const Notify& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u64(m.resource_key);
  }
  void operator()(const GetWorkRequest& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u32(m.max_tasks);
  }
  void operator()(const GetWorkReply& m) const { encode_task_specs(w, m.tasks); }
  void operator()(const StatusRequest&) const {}
  void operator()(const StatusReply& m) const {
    w.put_u64(m.submitted_tasks);
    w.put_u64(m.queued_tasks);
    w.put_u64(m.dispatched_tasks);
    w.put_u64(m.completed_tasks);
    w.put_u64(m.failed_tasks);
    w.put_u64(m.retried_tasks);
    w.put_u64(m.suspicions);
    w.put_u64(m.false_suspicions);
    w.put_u64(m.quarantined_tasks);
    w.put_u32(m.registered_executors);
    w.put_u32(m.busy_executors);
    w.put_u32(m.idle_executors);
    w.put_u64(m.epoch);
  }
  void operator()(const DeregisterRequest& m) const {
    w.put_u64(m.executor_id.value);
    w.put_string(m.reason);
  }
  void operator()(const DeregisterReply&) const {}
  void operator()(const WaitResultsRequest& m) const {
    w.put_u64(m.instance_id.value);
    w.put_u32(m.max_results);
    w.put_double(m.timeout_s);
  }
  void operator()(const WaitResultsReply& m) const {
    encode_task_results(w, m.results);
  }
  void operator()(const ClientNotify& m) const {
    w.put_u64(m.instance_id.value);
    w.put_u64(m.completed);
  }
  void operator()(const HeartbeatRequest& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u64(m.digest_generation);
    w.put_u32(m.data_port);
    w.put_bool(m.has_digest);
    encode_string_vector(w, m.cached);
  }
  void operator()(const HeartbeatReply&) const {}
  void operator()(const TaskBundle& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u64(m.acknowledged);
    encode_task_specs(w, m.tasks);
  }
  void operator()(const ResultBundle& m) const {
    w.put_u64(m.executor_id.value);
    encode_task_results(w, m.results);
    w.put_u32(m.want_tasks);
  }
  void operator()(const ReplFetch& m) const {
    w.put_u64(m.from_lsn);
    w.put_u32(m.max_bytes);
    w.put_u64(m.epoch);
  }
  void operator()(const ReplAppend& m) const {
    w.put_u64(m.first_lsn);
    w.put_u64(m.last_lsn);
    w.put_string(m.payload);
    w.put_u64(m.epoch);
  }
  void operator()(const ReplSnapshot& m) const {
    w.put_u64(m.lsn);
    w.put_string(m.payload);
    w.put_u64(m.epoch);
  }
  void operator()(const ReplAck& m) const {
    w.put_u64(m.applied_lsn);
    w.put_u64(m.epoch);
  }
  void operator()(const ReplAckReply&) const {}
  void operator()(const ElectionPing& m) const {
    w.put_u64(m.epoch);
    w.put_u32(m.rank);
    w.put_u64(m.applied_lsn);
  }
  void operator()(const ElectionAck& m) const {
    w.put_u64(m.epoch);
    w.put_u32(m.rank);
    w.put_u64(m.applied_lsn);
    w.put_bool(m.promoted);
  }
  void operator()(const CacheDigest& m) const {
    w.put_u64(m.executor_id.value);
    w.put_u64(m.generation);
    w.put_u32(m.data_port);
    encode_string_vector(w, m.objects);
  }
  void operator()(const DataFetch& m) const { w.put_string(m.object); }
  void operator()(const DataFetchReply& m) const {
    w.put_string(m.object);
    w.put_u64(m.object_bytes);
    w.put_string(m.payload);
    w.put_u32(m.crc);
  }
  void operator()(const DataEvict& m) const {
    w.put_u64(m.executor_id.value);
    w.put_string(m.object);
  }
  void operator()(const SubscribeResults& m) const {
    w.put_u64(m.instance_id.value);
    w.put_u64(m.ack_seq);
  }
  void operator()(const ResultStream& m) const {
    w.put_u64(m.instance_id.value);
    w.put_u64(m.seq);
    encode_task_results(w, m.results);
  }
};

Message decode_payload(MsgType type, Reader& r) {
  switch (type) {
    case MsgType::kError: {
      ErrorReply m;
      m.code = static_cast<ErrorCode>(r.get_u8());
      m.message = r.get_string();
      return m;
    }
    case MsgType::kCreateInstanceRequest:
      return CreateInstanceRequest{ClientId{r.get_u64()}};
    case MsgType::kCreateInstanceReply:
      return CreateInstanceReply{InstanceId{r.get_u64()}};
    case MsgType::kDestroyInstanceRequest:
      return DestroyInstanceRequest{InstanceId{r.get_u64()}};
    case MsgType::kDestroyInstanceReply:
      return DestroyInstanceReply{};
    case MsgType::kSubmitRequest: {
      SubmitRequest m;
      m.instance_id = InstanceId{r.get_u64()};
      m.tasks = decode_task_specs(r);
      m.submit_seq = r.get_u64();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kSubmitReply: {
      SubmitReply m;
      m.accepted = r.get_u64();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kRegisterRequest: {
      RegisterRequest m;
      m.node_id = NodeId{r.get_u64()};
      m.host = r.get_string();
      m.slots = r.get_u32();
      m.allocation_id = AllocationId{r.get_u64()};
      m.data_port = r.get_u32();
      m.cached = decode_string_vector(r);
      return m;
    }
    case MsgType::kRegisterReply: {
      RegisterReply m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kNotify: {
      Notify m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.resource_key = r.get_u64();
      return m;
    }
    case MsgType::kGetWorkRequest: {
      GetWorkRequest m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.max_tasks = r.get_u32();
      return m;
    }
    case MsgType::kGetWorkReply: {
      GetWorkReply m;
      m.tasks = decode_task_specs(r);
      return m;
    }
    case MsgType::kStatusRequest:
      return StatusRequest{};
    case MsgType::kStatusReply: {
      StatusReply m;
      m.submitted_tasks = r.get_u64();
      m.queued_tasks = r.get_u64();
      m.dispatched_tasks = r.get_u64();
      m.completed_tasks = r.get_u64();
      m.failed_tasks = r.get_u64();
      m.retried_tasks = r.get_u64();
      m.suspicions = r.get_u64();
      m.false_suspicions = r.get_u64();
      m.quarantined_tasks = r.get_u64();
      m.registered_executors = r.get_u32();
      m.busy_executors = r.get_u32();
      m.idle_executors = r.get_u32();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kDeregisterRequest: {
      DeregisterRequest m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.reason = r.get_string();
      return m;
    }
    case MsgType::kDeregisterReply:
      return DeregisterReply{};
    case MsgType::kWaitResultsRequest: {
      WaitResultsRequest m;
      m.instance_id = InstanceId{r.get_u64()};
      m.max_results = r.get_u32();
      m.timeout_s = r.get_double();
      return m;
    }
    case MsgType::kWaitResultsReply: {
      WaitResultsReply m;
      m.results = decode_task_results(r);
      return m;
    }
    case MsgType::kClientNotify: {
      ClientNotify m;
      m.instance_id = InstanceId{r.get_u64()};
      m.completed = r.get_u64();
      return m;
    }
    case MsgType::kHeartbeatRequest: {
      HeartbeatRequest m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.digest_generation = r.get_u64();
      m.data_port = r.get_u32();
      m.has_digest = r.get_bool();
      m.cached = decode_string_vector(r);
      return m;
    }
    case MsgType::kHeartbeatReply:
      return HeartbeatReply{};
    case MsgType::kTaskBundle: {
      TaskBundle m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.acknowledged = r.get_u64();
      m.tasks = decode_task_specs(r);
      return m;
    }
    case MsgType::kResultBundle: {
      ResultBundle m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.results = decode_task_results(r);
      m.want_tasks = r.get_u32();
      return m;
    }
    case MsgType::kReplFetch: {
      ReplFetch m;
      m.from_lsn = r.get_u64();
      m.max_bytes = r.get_u32();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kReplAppend: {
      ReplAppend m;
      m.first_lsn = r.get_u64();
      m.last_lsn = r.get_u64();
      m.payload = r.get_string();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kReplSnapshot: {
      ReplSnapshot m;
      m.lsn = r.get_u64();
      m.payload = r.get_string();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kReplAck: {
      ReplAck m;
      m.applied_lsn = r.get_u64();
      m.epoch = r.get_u64();
      return m;
    }
    case MsgType::kReplAckReply:
      return ReplAckReply{};
    case MsgType::kElectionPing: {
      ElectionPing m;
      m.epoch = r.get_u64();
      m.rank = r.get_u32();
      m.applied_lsn = r.get_u64();
      return m;
    }
    case MsgType::kElectionAck: {
      ElectionAck m;
      m.epoch = r.get_u64();
      m.rank = r.get_u32();
      m.applied_lsn = r.get_u64();
      m.promoted = r.get_bool();
      return m;
    }
    case MsgType::kCacheDigest: {
      CacheDigest m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.generation = r.get_u64();
      m.data_port = r.get_u32();
      m.objects = decode_string_vector(r);
      return m;
    }
    case MsgType::kDataFetch: {
      DataFetch m;
      m.object = r.get_string();
      return m;
    }
    case MsgType::kDataFetchReply: {
      DataFetchReply m;
      m.object = r.get_string();
      m.object_bytes = r.get_u64();
      m.payload = r.get_string();
      m.crc = r.get_u32();
      if (crc32(m.payload.data(), m.payload.size()) != m.crc) {
        throw CodecError("data fetch payload crc mismatch");
      }
      return m;
    }
    case MsgType::kDataEvict: {
      DataEvict m;
      m.executor_id = ExecutorId{r.get_u64()};
      m.object = r.get_string();
      return m;
    }
    case MsgType::kSubscribeResults: {
      SubscribeResults m;
      m.instance_id = InstanceId{r.get_u64()};
      m.ack_seq = r.get_u64();
      return m;
    }
    case MsgType::kResultStream: {
      ResultStream m;
      m.instance_id = InstanceId{r.get_u64()};
      m.seq = r.get_u64();
      m.results = decode_task_results(r);
      return m;
    }
  }
  throw CodecError("unknown message type");
}

}  // namespace

MsgType message_type(const Message& message) {
  return static_cast<MsgType>(message.index());
}

std::vector<std::uint8_t> encode_message(const Message& message) {
  Writer w;
  encode_message_into(w, message);
  return w.take();
}

void encode_message_into(Writer& w, const Message& message) {
  w.clear();
  w.put_u8(static_cast<std::uint8_t>(message_type(message)));
  std::visit(EncodeVisitor{w}, message);
}

Result<Message> decode_message(const std::uint8_t* data, std::size_t size) {
  try {
    Reader r(data, size);
    const auto type = static_cast<MsgType>(r.get_u8());
    Message m = decode_payload(type, r);
    return m;
  } catch (const CodecError& e) {
    return make_error(ErrorCode::kProtocolError, e.what());
  }
}

Result<Message> decode_message(const std::vector<std::uint8_t>& buffer) {
  return decode_message(buffer.data(), buffer.size());
}

}  // namespace falkon::wire
