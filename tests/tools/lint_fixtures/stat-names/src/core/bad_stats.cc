namespace emv {

struct BadStats : StatGroup
{
    BadStats() : StatGroup("bad") {}
    Counter badName{*this, "BadCamelName"};
};

} // namespace emv
