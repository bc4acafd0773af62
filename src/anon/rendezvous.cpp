#include "anon/rendezvous.hpp"

namespace p2panon::anon {

// [kind u8][service u64be][conversation u64be], then the data.
constexpr std::size_t kFrameHeaderSize = 1 + 8 + 8;

Bytes serialize_frame(const RendezvousFrame& frame) {
  Bytes out;
  out.reserve(kFrameHeaderSize + frame.data.size());
  out.push_back(static_cast<std::uint8_t>(frame.kind));
  put_u64be(out, frame.service);
  put_u64be(out, frame.conversation);
  append(out, frame.data);
  return out;
}

std::optional<RendezvousFrame> parse_frame(ByteView payload) {
  if (payload.size() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t kind = payload[0];
  if (kind < 1 || kind > 5) return std::nullopt;
  RendezvousFrame frame;
  frame.kind = static_cast<RendezvousFrame::Kind>(kind);
  frame.service = get_u64be(payload, 1);
  frame.conversation = get_u64be(payload, 9);
  const ByteView data = payload.subspan(kFrameHeaderSize);
  frame.data.assign(data.begin(), data.end());
  return frame;
}

// --- host -----------------------------------------------------------------------

bool RendezvousHost::on_message(const ReceivedMessage& message) {
  if (message.responder != node_) return false;
  const auto frame = parse_frame(message.data);
  if (!frame.has_value()) return false;

  switch (frame->kind) {
    case RendezvousFrame::Kind::kRegister: {
      // (Re)bind the service to this registration's reverse-path handle.
      services_[frame->service] =
          Registration{message.message_id};
      return true;
    }
    case RendezvousFrame::Kind::kCall: {
      const auto it = services_.find(frame->service);
      if (it == services_.end()) return true;  // unknown service: drop
      conversations_[frame->conversation] =
          Conversation{message.message_id};
      RendezvousFrame forwarded;
      forwarded.kind = RendezvousFrame::Kind::kForwardedCall;
      forwarded.service = frame->service;
      forwarded.conversation = frame->conversation;
      forwarded.data = frame->data;
      router_.send_response(node_, it->second.registration_message,
                            serialize_frame(forwarded));
      return true;
    }
    case RendezvousFrame::Kind::kReply: {
      const auto it = conversations_.find(frame->conversation);
      if (it == conversations_.end()) return true;
      RendezvousFrame forwarded;
      forwarded.kind = RendezvousFrame::Kind::kForwardedReply;
      forwarded.conversation = frame->conversation;
      forwarded.data = frame->data;
      router_.send_response(node_, it->second.call_message,
                            serialize_frame(forwarded));
      return true;
    }
    default:
      return false;  // forwarded frames never arrive as forward messages
  }
}

// --- service --------------------------------------------------------------------

AnonymousService::AnonymousService(AnonRouter& router, Session& session,
                                   ServiceId service,
                                   SimDuration reregister_interval)
    : router_(router), session_(session), service_(service) {
  session_.set_response_handler([this](MessageId, Bytes data) {
    const auto frame = parse_frame(data);
    if (!frame.has_value() ||
        frame->kind != RendezvousFrame::Kind::kForwardedCall) {
      return;
    }
    if (call_handler_) call_handler_(frame->conversation, frame->data);
  });
  reregister_ = std::make_unique<sim::PeriodicTask>(
      router_.simulator(), reregister_interval, [this] { register_now(); });
}

void AnonymousService::start(std::function<void(bool)> ready) {
  session_.construct([this, ready = std::move(ready)](bool ok, std::size_t) {
    if (ok) {
      register_now();
      reregister_->start();
    }
    ready(ok);
  });
}

void AnonymousService::register_now() {
  RendezvousFrame frame;
  frame.kind = RendezvousFrame::Kind::kRegister;
  frame.service = service_;
  session_.send_message(serialize_frame(frame));
}

void AnonymousService::reply(ConversationId conversation, ByteView data) {
  RendezvousFrame frame;
  frame.kind = RendezvousFrame::Kind::kReply;
  frame.conversation = conversation;
  frame.data.assign(data.begin(), data.end());
  session_.send_message(serialize_frame(frame));
}

// --- client ---------------------------------------------------------------------

AnonymousClient::AnonymousClient(Session& session, Rng rng)
    : session_(session), rng_(rng) {
  session_.set_response_handler([this](MessageId, Bytes data) {
    const auto frame = parse_frame(data);
    if (!frame.has_value() ||
        frame->kind != RendezvousFrame::Kind::kForwardedReply) {
      return;
    }
    if (reply_handler_) reply_handler_(frame->conversation, frame->data);
  });
}

void AnonymousClient::start(std::function<void(bool)> ready) {
  session_.construct(
      [ready = std::move(ready)](bool ok, std::size_t) { ready(ok); });
}

ConversationId AnonymousClient::call(ServiceId service, ByteView data) {
  ConversationId conversation;
  do {
    conversation = rng_.next_u64();
  } while (conversation == 0);
  RendezvousFrame frame;
  frame.kind = RendezvousFrame::Kind::kCall;
  frame.service = service;
  frame.conversation = conversation;
  frame.data.assign(data.begin(), data.end());
  if (session_.send_message(serialize_frame(frame)) == 0) return 0;
  return conversation;
}

}  // namespace p2panon::anon
