#include "fptc/augment/time_series.hpp"

#include <stdexcept>

namespace fptc::augment {

ChangeRtt::ChangeRtt(double alpha_lo, double alpha_hi) : alpha_lo_(alpha_lo), alpha_hi_(alpha_hi)
{
    if (!(alpha_lo > 0.0 && alpha_hi >= alpha_lo)) {
        throw std::invalid_argument("ChangeRtt: need 0 < alpha_lo <= alpha_hi");
    }
}

flow::Flow ChangeRtt::transform_flow(const flow::Flow& input, util::Rng& rng) const
{
    const double alpha = rng.uniform(alpha_lo_, alpha_hi_);
    flow::Flow output = input;
    if (output.packets.empty()) {
        return output;
    }
    const double origin = output.packets.front().timestamp;
    for (auto& packet : output.packets) {
        packet.timestamp = origin + alpha * (packet.timestamp - origin);
    }
    return output;
}

TimeShift::TimeShift(double shift_lo, double shift_hi) : shift_lo_(shift_lo), shift_hi_(shift_hi)
{
    if (!(shift_hi >= shift_lo)) {
        throw std::invalid_argument("TimeShift: need shift_lo <= shift_hi");
    }
}

flow::Flow TimeShift::transform_flow(const flow::Flow& input, util::Rng& rng) const
{
    const double shift = rng.uniform(shift_lo_, shift_hi_);
    flow::Flow output = input;
    for (auto& packet : output.packets) {
        packet.timestamp += shift;
    }
    // Packets pushed before the window start are out of the representation;
    // the rasterizer skips negative times, but dropping them here keeps the
    // series a valid monotone trace for any downstream consumer.
    std::erase_if(output.packets, [](const flow::Packet& p) { return p.timestamp < 0.0; });
    // A flow lying wholly inside the first |shift| s would come out empty
    // (an all-zero flowpic); keep its last packet at the window start, as
    // PacketLoss keeps one packet.
    if (output.packets.empty() && !input.packets.empty()) {
        output.packets.push_back(input.packets.back());
        output.packets.back().timestamp = 0.0;
    }
    return output;
}

PacketLoss::PacketLoss(double rate_lo, double rate_hi) : rate_lo_(rate_lo), rate_hi_(rate_hi)
{
    if (!(rate_lo >= 0.0 && rate_hi >= rate_lo && rate_hi < 1.0)) {
        throw std::invalid_argument("PacketLoss: need 0 <= rate_lo <= rate_hi < 1");
    }
}

flow::Flow PacketLoss::transform_flow(const flow::Flow& input, util::Rng& rng) const
{
    const double rate = rng.uniform(rate_lo_, rate_hi_);
    flow::Flow output;
    output.label = input.label;
    output.background = input.background;
    output.packets.reserve(input.packets.size());
    for (const auto& packet : input.packets) {
        if (!rng.bernoulli(rate)) {
            output.packets.push_back(packet);
        }
    }
    if (output.packets.empty() && !input.packets.empty()) {
        output.packets.push_back(input.packets.front());
    }
    return output;
}

} // namespace fptc::augment
