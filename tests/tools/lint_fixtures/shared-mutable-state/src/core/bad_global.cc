namespace emv {

unsigned long globalWalkCount = 0;

/** Owns no lock, so an object of it at namespace scope is racy. */
class BadCounter
{
  public:
    unsigned long next();

  private:
    unsigned long count = 0;
};

BadCounter globalCounter;

} // namespace emv
